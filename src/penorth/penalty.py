"""Exact penalty for the orthogonality defect.

For X on the nonnegative oblique manifold and a coupling matrix V with
unit Frobenius norm and entrywise-positive V V^T, the scalar
s = ||X V||_F satisfies s >= 1 with equality exactly on the orthogonal
nonnegative points. The penalty family is

    P(X) = f(X) + sigma * (zeta_q(X) + eps)^p,   zeta_q(X) = s^q - 1,

with p >= 1 requiring eps = 0. Everything here works with Euclidean
derivatives of f and converts to Riemannian quantities on the oblique
manifold via the projections in manifold.py.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadShape, NonFiniteObjective, NotFeasible, SingularCurvature
from .manifold import (inner, norm, riemannian_grad, riemannian_hess_apply,
                       stationarity_residual)
from .rounding import feasibility_violation
from .types import (Objective, PenaltyContext, PenaltyParams, SupportPattern,
                    support_pattern)


@dataclasses.dataclass(frozen=True)
class PenaltyEval:
    """Scalars shared by the penalty's value and derivatives at one point.

    s = ||X V||_F, zeta = s^q - 1, c is the gradient coefficient
    (grad of the penalty term is c * X V V^T scaled by sigma), and cps is
    c'(s)/s, the curvature coefficient (NaN when singular, i.e. p < 1 at
    zero residual).
    """

    value: float
    f_value: float
    s: float
    zeta: float
    c: float
    cps: float


def _penalty_scalars(s: float, params: PenaltyParams):
    """Return (zeta, base, c, cps) at s = ||X V||_F."""
    p, q, eps = params.p, params.q, params.eps
    zeta = s ** q - 1.0
    base = zeta + eps
    if base < 0:
        # roundoff can put s a hair below 1 on feasible points
        base = 0.0
    if p == 1.0:
        fac = 1.0
    elif base > 0:
        fac = base ** (p - 1.0)
    else:
        fac = np.inf if p < 1 else 0.0
    c = p * q * fac * s ** (q - 2.0)
    tail = 0.0
    singular = False
    if p != 1.0:
        if base > 0:
            tail += (p - 1.0) * q * s ** (q - 2.0) / base
        elif p < 1:
            singular = True
    if q != 2.0:
        tail += (q - 2.0) / (s * s)
    cps = np.nan if singular else c * tail
    return zeta, base, c, cps


def zeta(X, ctx: PenaltyContext, q: float = 2.0) -> float:
    """Orthogonality defect zeta_q(X) = ||X V||_F^q - 1 (>= 0 on the manifold)."""
    Xd = np.asarray(X, dtype=float)
    s = float(np.linalg.norm(Xd @ ctx.V))
    return s ** q - 1.0


def penalty_value(X, ctx: PenaltyContext, params: PenaltyParams,
                  f: Objective) -> PenaltyEval:
    """Evaluate P = f + sigma*(zeta_q + eps)^p together with its scalars.

    Raises NonFiniteObjective when f(X) is not finite.
    """
    return PenalizedObjective(f, ctx, params).evaluate(np.asarray(X, dtype=float))


def penalty_rgrad(X, ctx: PenaltyContext, params: PenaltyParams,
                  G_f: np.ndarray) -> np.ndarray:
    """Riemannian gradient of the penalized objective at X.

    G_f is the Euclidean gradient of f at X. The penalty term contributes
    sigma * c * X V V^T to the Euclidean gradient before projection.
    """
    Xd = np.asarray(X, dtype=float)
    # the penalty term alone needs no f
    term = PenalizedObjective(None, ctx, params).term_grad(Xd)
    return riemannian_grad(Xd, np.asarray(G_f, dtype=float) + term)


def penalty_rhess_apply(X, ctx: PenaltyContext, params: PenaltyParams,
                        f: Objective, D, G_f=None) -> np.ndarray:
    """Riemannian Hessian of the penalized objective applied to tangent D.

    Raises SingularCurvature when p < 1 and the penalty residual is zero
    (the curvature scalar blows up there), NotTangent when D is not
    tangent at X within 1e-8.
    """
    Xd = np.asarray(X, dtype=float)
    Dd = np.asarray(D, dtype=float)
    h = PenalizedObjective(f, ctx, params)
    HD = h.hess_apply(Xd, Dd)
    G_f = f.grad(Xd) if G_f is None else np.asarray(G_f, dtype=float)
    return riemannian_hess_apply(Xd, G_f + h.term_grad(Xd), HD, Dd)


def kkt_residual_subproblem(X, ctx: PenaltyContext, params: PenaltyParams,
                            G_f: np.ndarray) -> float:
    """Stationarity residual ||min(X, grad P(X))||_F of the penalized problem.

    Equals ||X - proj_{+}(X - grad P)||_F for entrywise-nonnegative X, so it
    vanishes exactly at points satisfying the first-order conditions.
    """
    Xd = np.asarray(X, dtype=float)
    # penalty_rgrad's Euclidean gradient, projected in one buffer
    term = PenalizedObjective(None, ctx, params).term_grad(Xd)
    return stationarity_residual(Xd, np.asarray(G_f, dtype=float) + term)


class PenalizedObjective(Objective):
    """Euclidean view of P = f + sigma*(zeta_q + eps)^p for the subsolvers.

    The only implementation of the penalty term's value and derivatives;
    penalty_value, penalty_rgrad and penalty_rhess_apply wrap it.
    """

    def __init__(self, f: Objective, ctx: PenaltyContext, params: PenaltyParams):
        self.f = f
        self.ctx = ctx
        self.params = params

    def _scalars(self, X):
        s = norm(X @ self.ctx.V)
        return (s,) + _penalty_scalars(s, self.params)

    def evaluate(self, X) -> PenaltyEval:
        """Value of P at X with the scalars it was assembled from."""
        fv = float(self.f.value(X))
        if not np.isfinite(fv):
            raise NonFiniteObjective(f"objective value {fv!r}")
        s, zq, base, c, cps = self._scalars(X)
        return PenaltyEval(value=fv + self.params.sigma * base ** self.params.p,
                           f_value=fv, s=s, zeta=zq, c=c, cps=cps)

    def value(self, X):
        return self.evaluate(X).value

    def term_grad(self, X):
        """Euclidean gradient of the penalty term sigma*(zeta_q + eps)^p."""
        c = self._scalars(X)[3]
        return self.params.sigma * c * (X @ self.ctx.vvt)

    def grad(self, X):
        return self.f.grad(X) + self.term_grad(X)

    def hess_at(self, X):
        """The Hessian at X as an operator D -> H[D]: the scalars, X V V^T
        and f's Hessian operator are formed once, here.

        Where the curvature is undefined the operator raises
        SingularCurvature when applied, not when built.
        """
        s, _, _, c, cps = self._scalars(X)
        singular = not np.isfinite(cps) or not np.isfinite(c)
        sigma = self.params.sigma
        vvt = self.ctx.vvt
        Xv = X @ vvt
        f_hess = self.f.hess_at(X)

        def apply(D):
            if singular:
                raise SingularCurvature(
                    f"penalty curvature undefined at s={s!r} with p={self.params.p!r}")
            return f_hess(D) + sigma * (c * (D @ vvt) + cps * inner(Xv, D) * Xv)

        return apply

    def hess_apply(self, X, D):
        return self.hess_at(X)(D)


@dataclasses.dataclass(frozen=True)
class StationarityReport:
    """Verdict of the first-order check on the original constrained problem."""

    classification: str  # "stationary" | "weakly-stationary" | "not-stationary"
    grad_violation: float  # max |riemannian grad| over the support
    sign_violation: float  # max negative part of the Euclidean grad on dead rows
    pattern: SupportPattern


def check_stationarity_original(X, f: Objective,
                                tol: float = 1e-8) -> StationarityReport:
    """Classify a feasible point of the original orthogonal+nonnegative problem.

    Stationary: the Riemannian gradient vanishes on the support AND the
    Euclidean gradient is nonnegative on zero entries lying in all-zero
    rows. Weakly stationary: only the first condition. The sign condition
    is vacuous on zeros in rows that have support (those entries are forced
    by orthogonality, not by the bound).

    Raises NotFeasible unless ||X^T X - I||_F + ||min(X,0)||_F <= 1e-10.
    """
    Xd = np.asarray(X, dtype=float)
    if Xd.ndim != 2:
        raise BadShape("check_stationarity_original needs a matrix")
    viol = feasibility_violation(Xd)
    if viol > 1e-10:
        raise NotFeasible(f"feasibility violation {viol!r} exceeds 1e-10")
    pat = support_pattern(Xd)
    G = np.asarray(f.grad(Xd), dtype=float)
    rg = riemannian_grad(Xd, G)
    grad_violation = float(np.abs(rg[pat.supp]).max()) if pat.supp.any() else 0.0
    if pat.zero_rowdead.any():
        sign_violation = float(max(0.0, -G[pat.zero_rowdead].min()))
    else:
        sign_violation = 0.0
    if grad_violation <= tol and sign_violation <= tol:
        cls = "stationary"
    elif grad_violation <= tol:
        cls = "weakly-stationary"
    else:
        cls = "not-stationary"
    return StationarityReport(classification=cls, grad_violation=grad_violation,
                              sign_violation=sign_violation, pattern=pat)
