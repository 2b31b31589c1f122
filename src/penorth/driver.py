"""Outer loop of the exact-penalty method, rounding refinement, presets.

The driver repeatedly minimizes the penalized objective to a loosening
inner tolerance, grows the penalty weight, and stops once the
orthogonality defect ||X V||_F^2 - 1 falls below tol_feas. A fixed
feasible anchor point guards every outer iteration: when the incumbent's
penalty value exceeds the anchor's, the inner solve restarts from the
anchor. The final iterate is rounded onto the feasible set and, by
default, refined over the rounded support without ever increasing f.
"""
from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional

import numpy as np

from . import rounding
from .errors import BadShape, EmptyColumnSupport, NonFiniteObjective
from .manifold import norm, project_oblique_plus
from .penalty import PenalizedObjective, kkt_residual_subproblem
from .rounding import FeasiblePoint, feasibility_violation
from .subsolvers import (GPConfig, NewtonConfig, gradient_projection_solve,
                         newton_solve)
from .types import (DriverConfig, Objective, ObliqueMatrix, PenaltyContext,
                    PenaltyParams, SolveReport, make_oblique)


@dataclasses.dataclass
class PenaltySchedule:
    """Mutable state of the penalty continuation.

    advance() grows sigma (strictly, factor > 1), decays the smoothing
    offset by gamma1 and the inner tolerance by eta down to its floor.
    """

    sigma: float
    eps: float
    eps_grad: float
    gamma1: float
    gamma2: float
    eta: float
    eps_grad_min: float
    gamma2_rule: Optional[Callable[[float], float]] = None

    def advance(self, xv_sq: float) -> None:
        factor = self.gamma2_rule(xv_sq) if self.gamma2_rule else self.gamma2
        if factor <= 1:
            raise BadShape(f"penalty growth factor must exceed 1, got {factor!r}")
        self.sigma *= factor
        self.eps *= self.gamma1
        self.eps_grad = max(self.eta * self.eps_grad, self.eps_grad_min)


def feasible_init(ctx: PenaltyContext, hint=None, rng=None) -> FeasiblePoint:
    """Produce an exactly feasible starting point.

    With a hint matrix: project it onto the nonnegative oblique manifold
    and round. Without: same from a uniform random nonnegative matrix.
    """
    if hint is not None:
        hint = np.asarray(hint, dtype=float)
        if hint.shape != (ctx.n, ctx.k):
            raise BadShape(f"hint shape {hint.shape} != ({ctx.n}, {ctx.k})")
        Xob = project_oblique_plus(hint)
    else:
        if rng is None:
            rng = np.random.default_rng(np.random.Philox(0))
        Xob = project_oblique_plus(rng.random((ctx.n, ctx.k)))
    return rounding.round(Xob.data)


def postprocess(Xr: FeasiblePoint, f: Objective) -> FeasiblePoint:
    """Refine a rounded point over its own support pattern, never increasing f.

    Column supports stay inside the rounded ones, so the result is exactly
    feasible. Linear objectives (f decreasing in <C, X>) and nonnegative
    quadratic forms (f = const - tr(X^T M X), M entrywise nonnegative PSD)
    have closed-form columnwise solutions. An objective without either
    structure gets the rounded point back, and so does one whose
    refinement fails to improve f.

    Raises EmptyColumnSupport when a rounded column has no support at all.
    """
    H = Xr.mask
    if not H.any(axis=0).all():
        j = int(np.argmin(H.any(axis=0)))
        raise EmptyColumnSupport(f"rounded column {j} has empty support")
    n, k = Xr.n, Xr.k
    kind = getattr(f, "refine_kind", "generic")
    if kind == "linear":
        C = np.asarray(f.refine_linear_C(), dtype=float)
        out = np.zeros((n, k))
        for j in range(k):
            pos = np.where(H[:, j], np.maximum(C[:, j], 0.0), 0.0)
            nrm = np.linalg.norm(pos)
            if nrm > 0:
                out[:, j] = pos / nrm
            else:
                # all supported entries of c_j are <= 0: best unit vector on
                # the support is the coordinate at the largest c_j entry
                idx = np.nonzero(H[:, j])[0]
                out[idx[int(np.argmax(C[idx, j]))], j] = 1.0
    elif kind == "quadratic-form":
        out = np.zeros((n, k))
        for j in range(k):
            idx = np.nonzero(H[:, j])[0]
            M = np.asarray(f.refine_quadratic_submatrix(idx), dtype=float)
            w, vecs = np.linalg.eigh(M)
            v = np.abs(vecs[:, -1])
            nv = np.linalg.norm(v)
            out[idx, j] = v / nv if nv > 0 else Xr.data[idx, j]
    else:
        return Xr
    if float(f.value(out)) > float(f.value(Xr.data)):
        return Xr
    out.setflags(write=False)
    mask = out > 0
    mask.setflags(write=False)
    return FeasiblePoint(data=out, mask=mask)


def ep4orth_solve(f: Objective, ctx: PenaltyContext,
                  cfg: DriverConfig = DriverConfig(), *,
                  X0: Optional[ObliqueMatrix] = None,
                  X_feas: Optional[FeasiblePoint] = None,
                  inner_factory: Optional[Callable] = None) -> SolveReport:
    """Exact-penalty continuation for min f(X) over orthogonal nonnegative X.

    f supplies Euclidean derivatives of the smooth objective. inner_factory,
    when given, maps (start point, penalty params) to the objective actually
    minimized in that outer iteration (used for rescaled linear models and
    per-iteration quadratic surrogates); by default it is the penalized f
    itself. All anchor and descent comparisons run on the inner objective,
    while the logged KKT residual always refers to the unscaled penalty of f.

    Returns a SolveReport whose final matrix is exactly feasible (rounded,
    then refined unless cfg.do_postprocess is off). extra carries the
    pre-rounding iterate and the rounded point for diagnostics.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.Philox(cfg.rng_seed))
    if X_feas is None:
        X_feas = feasible_init(ctx, rng=rng)
    Xf_ob = make_oblique(X_feas.data)
    X = X0 if X0 is not None else Xf_ob
    if not isinstance(X, ObliqueMatrix):
        X = make_oblique(X)
    if X.data.shape != (ctx.n, ctx.k):
        raise BadShape(f"start point shape {X.data.shape} != ({ctx.n}, {ctx.k})")

    sched = PenaltySchedule(sigma=cfg.sigma0, eps=cfg.eps0,
                            eps_grad=cfg.eps_grad0, gamma1=cfg.gamma1,
                            gamma2=cfg.gamma2, eta=cfg.eta,
                            eps_grad_min=cfg.eps_grad_min,
                            gamma2_rule=cfg.gamma2_rule)

    report = SolveReport()
    total_inner = 0
    term = "max-outer"
    kkt_penalty = np.nan
    zeta2 = norm(X.data @ ctx.V) ** 2 - 1.0
    outer_done = 0
    for t in range(cfg.t_max):
        params_t = PenaltyParams(sigma=sched.sigma, p=cfg.p, q=cfg.q,
                                 eps=sched.eps)
        h_t = (inner_factory(X, params_t) if inner_factory
               else PenalizedObjective(f, ctx, params_t))
        # X last: an inner objective that keeps its last point starts there
        hF = float(h_t.value(Xf_ob.data))
        hX = float(h_t.value(X.data))
        anchored = False
        if cfg.anchor == "start" and hX > hF:
            X = Xf_ob
            anchored = True
            if inner_factory:
                h_t = inner_factory(X, params_t)
                hF = float(h_t.value(Xf_ob.data))
            hX = float(h_t.value(X.data))

        s2_start = norm(X.data @ ctx.V) ** 2
        solver = cfg.force_solver or (
            "gp" if s2_start - 1.0 > cfg.zeta_switch else "newton")

        def solve(h, start):
            if solver == "newton":
                return newton_solve(h, start, NewtonConfig(
                    tol=sched.eps_grad, max_iter=cfg.max_inner))
            fixed = cfg.fixed_alpha if solver == "gp-fixed" else None
            bare_bb = solver == "gp-bb"
            return gradient_projection_solve(h, start, GPConfig(
                step_tol=sched.eps_grad, max_iter=cfg.max_inner,
                fixed_alpha=fixed, line_search=not bare_bb,
                alpha_cap=10.0 * ctx.k if bare_bb else None))

        Xn, irep = solve(h_t, X)
        total_inner += irep.iterations
        report.flags.extend(fl for fl in irep.flags if fl not in report.flags)

        hN = float(h_t.value(Xn.data))
        descent_ok = hN <= hX + 1e-12 * max(1.0, abs(hX))
        if not descent_ok:
            Xn, hN = X, hX  # keep the incumbent; subsolvers should not ascend
            if "InnerAscent" not in report.flags:
                report.flags.append("InnerAscent")
        if hN > hF:
            # warm-started branch ended worse than the feasible fallback
            # under this outer model: redo the solve from the fallback and
            # accept that instead, so the accepted outer value never
            # exceeds the fallback's value
            anchored = True
            if inner_factory:
                h_t = inner_factory(Xf_ob, params_t)
                hF = float(h_t.value(Xf_ob.data))
            Xa, irep2 = solve(h_t, Xf_ob)
            total_inner += irep2.iterations
            hA = float(h_t.value(Xa.data))
            if hA <= hF:
                Xn, hN = Xa, hA
            else:
                Xn, hN = Xf_ob, hF

        kkt_penalty = kkt_residual_subproblem(Xn.data, ctx, params_t,
                                              f.grad(Xn.data))
        s2 = norm(Xn.data @ ctx.V) ** 2
        zeta2 = s2 - 1.0
        report.history.append({
            "t": t, "sigma": sched.sigma, "eps_grad": sched.eps_grad,
            "solver": solver, "inner_iterations": irep.iterations,
            "kkt_inner": irep.kkt_residual, "kkt_penalty": kkt_penalty,
            "zeta2": zeta2, "h_start": hX, "h_end": hN,
            "descent_ok": bool(descent_ok), "anchored": anchored,
            "trials": irep.trials, "inner_flags": irep.flags,
        })
        X = Xn
        outer_done = t + 1
        if zeta2 <= cfg.tol_feas:
            term = "feasibility-tol"
            break
        if sched.sigma > 1e16:
            term = "stalled"
            break
        sched.advance(s2)

    XR = rounding.round(X.data)
    Xfinal = XR
    if cfg.do_postprocess:
        try:
            Xfinal = postprocess(XR, f)
        except EmptyColumnSupport:
            report.flags.append("EmptyColumnSupport")
            Xfinal = XR

    report.final = Xfinal.data
    report.objective = float(f.value(Xfinal.data))
    if not np.isfinite(report.objective):
        raise NonFiniteObjective(
            f"objective at the final point is {report.objective!r}")
    report.zeta = zeta2
    report.kkt_residual = kkt_penalty
    report.feasibility = feasibility_violation(Xfinal.data)
    report.outer_iterations = outer_done
    report.inner_iterations = total_inner
    report.termination = term
    report.seconds = time.perf_counter() - t0
    report.extra["X_preround"] = X.data
    report.extra["X_rounded"] = XR.data
    report.extra["f_rounded"] = float(f.value(XR.data))
    return report


def projection_preset(**overrides) -> DriverConfig:
    """Driver settings for nearest-point problems with a 1-Lipschitz scaled model."""
    base = dict(sigma0=1e-2, gamma2=5.0, eta=0.8, tol_feas=1e-8,
                eps_grad0=1e-4, eps_grad_min=1e-7, t_max=300,
                zeta_switch=0.0, force_solver="gp-fixed", fixed_alpha=0.99,
                max_inner=2000)
    base.update(overrides)
    return DriverConfig(**base)


def kindicators_preset(**overrides) -> DriverConfig:
    """Driver settings for K-indicators: fast penalty growth, BB steps
    without a line search, the anchor policy "start"."""
    base = dict(sigma0=10.0, gamma2=10.0, eta=0.5, tol_feas=0.1,
                eps_grad0=1e-3, eps_grad_min=1e-7, t_max=60, max_inner=500,
                force_solver="gp-bb", anchor="start")
    base.update(overrides)
    return DriverConfig(**base)


def onmf_preset(hyperspectral: bool = False, **overrides) -> DriverConfig:
    """Driver settings for the matrix-factorization problems.

    Slow penalty growth (data-dependent factor), second-order inner solver
    throughout (the switch threshold exceeds the largest possible defect in
    the standard variant).
    """
    if hyperspectral:
        def rule(s2):
            return 1.155 if s2 > 2.0 else 1.133
        extra = dict(tol_feas=0.3, zeta_switch=0.6)
    else:
        def rule(s2):
            return 1.05 if s2 > 2.0 else 1.03
        extra = dict(tol_feas=1e-8, zeta_switch=5.0)
    base = dict(sigma0=1e-3, gamma2=1.03, gamma2_rule=rule, eta=0.98,
                eps_grad0=1e-3, eps_grad_min=1e-7, t_max=300, max_inner=100)
    base.update(extra)
    base.update(overrides)
    return DriverConfig(**base)


PRESETS = {
    "projection": projection_preset,
    "kindicators": kindicators_preset,
    "onmf": onmf_preset,
    "onmf-hyperspectral": lambda **ov: onmf_preset(hyperspectral=True, **ov),
}
