"""Exact penalty for the orthogonality defect.

For X on the nonnegative oblique manifold and a coupling matrix V with
unit Frobenius norm and entrywise-positive V V^T, the scalar
s = ||X V||_F satisfies s >= 1 with equality exactly on the orthogonal
nonnegative points. The penalty family is

    P(X) = f(X) + sigma * (zeta_q(X) + eps)^p,   zeta_q(X) = s^q - 1,

with p >= 1 requiring eps = 0. PenalizedObjective is its one
implementation, in Euclidean terms; the Riemannian gradient and Hessian
on the oblique manifold, and the subproblem's stationarity residual, are
manifold.py's functions of them:

    h = PenalizedObjective(f, ctx, params)
    h.value(X)
    riemannian_grad(X, h.grad(X))
    riemannian_hess_apply(X, h.grad(X), h.hess_apply(X, D), D)
    stationarity_residual(X, h.grad(X))
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadShape, NonFiniteObjective, NotFeasible, SingularCurvature
from .manifold import _order, inner, norm, riemannian_grad
from .rounding import feasibility_violation
from .types import (SUPPORT_ZERO_TOL, Objective, PenaltyContext, PenaltyParams,
                    _as_float_matrix)


def _penalty_scalars(X, ctx: PenaltyContext, params: PenaltyParams):
    """Return (s, base, c, cps) at X.

    s = ||X V||_F, base = zeta_q + eps (roundoff below 0 clipped), c is the
    gradient coefficient (the penalty term's Euclidean gradient is
    sigma * c * X V V^T) and cps is c'(s)/s, the curvature coefficient
    (NaN when singular, i.e. p < 1 at zero residual).
    """
    s = norm(X @ ctx.V)
    p, q, eps = params.p, params.q, params.eps
    base = s ** q - 1.0 + eps
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
    return s, base, c, cps


def zeta(X, ctx: PenaltyContext, q: float = 2.0) -> float:
    """Orthogonality defect zeta_q(X) = ||X V||_F^q - 1 (>= 0 on the manifold)."""
    return norm(np.asarray(X, dtype=float) @ ctx.V) ** q - 1.0


class PenalizedObjective(Objective):
    """Euclidean view of P = f + sigma*(zeta_q + eps)^p.

    The only implementation of the penalty's value and derivatives, for
    the subsolvers and for any caller: its Riemannian gradient and Hessian
    are riemannian_grad and riemannian_hess_apply of grad and hess_apply
    (module docstring).
    """

    def __init__(self, f: Objective, ctx: PenaltyContext, params: PenaltyParams):
        self.f = f
        self.ctx = ctx
        self.params = params

    def value(self, X):
        """P(X); raises NonFiniteObjective when f(X) is not finite."""
        fv = float(self.f.value(X))
        if not np.isfinite(fv):
            raise NonFiniteObjective(f"objective value {fv!r}")
        base = _penalty_scalars(X, self.ctx, self.params)[1]
        return fv + self.params.sigma * base ** self.params.p

    def grad(self, X):
        c = _penalty_scalars(X, self.ctx, self.params)[2]
        G = np.matmul(X, self.ctx.vvt, order=_order(X))
        G *= self.params.sigma * c
        G += self.f.grad(X)
        return G

    def hess_at(self, X):
        """The Hessian at X as an operator D -> H[D]: the scalars, X V V^T
        and f's Hessian operator are formed once, here.

        Where the curvature is undefined the operator raises
        SingularCurvature when applied, not when built.
        """
        s, _, c, cps = _penalty_scalars(X, self.ctx, self.params)
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


def check_stationarity_original(X, f: Objective,
                                tol: float = 1e-8) -> StationarityReport:
    """Classify a feasible point of the original orthogonal+nonnegative problem.

    Stationary: the Riemannian gradient vanishes on the support AND the
    Euclidean gradient is nonnegative on zero entries lying in all-zero
    rows. Weakly stationary: only the first condition. The sign condition
    is vacuous on zeros in rows that have support (those entries are forced
    by orthogonality, not by the bound).

    Raises BadShape unless tol is finite and nonnegative (a NaN would make
    every comparison false) and X is a finite matrix, NotFeasible unless
    ||X^T X - I||_F + ||min(X,0)||_F <= 1e-10.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise BadShape(f"tol must be finite and nonnegative, got {tol!r}")
    Xd = _as_float_matrix(X, "X")
    viol = feasibility_violation(Xd)
    if not viol <= 1e-10:
        raise NotFeasible(f"feasibility violation {viol!r} exceeds 1e-10")
    supp = np.abs(Xd) > SUPPORT_ZERO_TOL
    # zeros in all-zero rows: the only entries under the sign condition
    dead = ~supp.any(axis=1)[:, None] & ~supp
    G = np.asarray(f.grad(Xd), dtype=float)
    rg = riemannian_grad(Xd, G)
    grad_violation = float(np.abs(rg[supp]).max()) if supp.any() else 0.0
    if dead.any():
        sign_violation = float(max(0.0, -G[dead].min()))
    else:
        sign_violation = 0.0
    if grad_violation <= tol and sign_violation <= tol:
        cls = "stationary"
    elif grad_violation <= tol:
        cls = "weakly-stationary"
    else:
        cls = "not-stationary"
    return StationarityReport(classification=cls, grad_violation=grad_violation,
                              sign_violation=sign_violation)
