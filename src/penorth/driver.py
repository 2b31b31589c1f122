"""Outer loop of the exact-penalty method, rounding refinement, presets.

The driver repeatedly minimizes the penalized objective to a loosening
inner tolerance, grows the penalty weight, and stops once the
orthogonality defect ||X V||_F^2 - 1 falls below tol_feas. A fixed
feasible anchor point guards every outer iteration: when the incumbent's
penalty value exceeds the anchor's, the inner solve restarts from the
anchor. The final iterate is rounded onto the feasible set and, by
default, refined over the rounded support without ever increasing f.

When f has a closed-form refinement (refine_kind "linear" or
"quadratic-form") and postprocessing is on, the refined point depends only
on the rounded support and the data, and the continuation often fixes
that support long before the defect reaches tol_feas. The driver then
also stops ("settled") once the row argmax has stayed the same for
SETTLE_WINDOW outer iterations in a row while every column is some row's
argmax and every row's largest entry leads its second by at least
SETTLE_MARGIN of itself; the margin keeps noisy runs, whose supports
still move late, from stopping early.

Under the anchor policy "start" with a fixed growth factor (gamma2_rule
unset) and no settled stop, the next outer iteration's anchor test is
known before this one solves: with sigma' = sigma * gamma2 it restarts
from the anchor X_feas when h_sigma'(X) > h_sigma'(X_feas). The driver
hands the projected-gradient solver that test as give_up, which holds
on an iterate X when this iteration would keep X (h_sigma(X) at most the
start's value, so neither the descent check nor the fallback rerun
fires), would not stop on it (||X V||_F^2 - 1 > tol_feas) and the next
iteration would anchor. Once it has held on subsolvers.GIVE_UP_WINDOW =
10 iterates in a row the solve stops there ("Abandoned" in the history
entry's inner_flags). Wherever the full solve's result would also have
been discarded, the next iteration restarts from the same anchor with the
same settings, so the answer is the same. The test is not armed in the
last outer iteration or once sigma exceeds 1e16, which ends the loop, and
it builds the next iteration's model once, at the solve's start: it is
exact for inner models that do not depend on the point they are built at,
as K-indicators' does not. On 84 K-indicators runs off the benchmark it
stopped all 33 first solves the driver then discarded, after 11-22
iterates where they had run 15-500, and none of the 51 it kept: on those
the full test never held, and its anchoring part alone at most 4 iterates
in a row.
"""
from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from . import rounding
from .errors import (BadShape, EmptyColumnSupport, NonFiniteObjective,
                     NotFeasible)
from .manifold import norm, project_oblique_plus
from .penalty import PenalizedObjective, kkt_residual_subproblem
from .rounding import feasibility_violation
from .subsolvers import gradient_projection_solve, newton_solve
from .types import (DriverConfig, Objective, ObliqueMatrix, PenaltyContext,
                    PenaltyParams, SolveReport, make_oblique)

# outer iterations in a row the row argmax must hold, and the smallest
# relative row margin (top - second) / top, for a settled stop
SETTLE_WINDOW = 5
SETTLE_MARGIN = 0.5
# floor of the inner stationarity tolerance, which decays by eta each outer
# iteration
EPS_GRAD_MIN = 1e-7
# largest feasibility_violation a caller's feasible fallback may have
FEAS_TOL = 1e-10


def row_support(X: np.ndarray) -> tuple:
    """Rounded support of X and how far it is from changing.

    Returns the row argmax as labels (-1 for a row with no positive entry,
    which rounding leaves empty) and the smallest (top - second) / top over
    the other rows: 1 when k = 1, and 0 when some column is no row's argmax,
    since rounding then resets the point to I_{n,k}.
    """
    n, k = X.shape
    arg = np.argmax(X, axis=1)
    top = X[np.arange(n), arg]
    live = top > 0
    labels = np.where(live, arg, -1)
    if not np.bincount(arg[live], minlength=k).all():
        return labels, 0.0
    if k == 1:
        return labels, 1.0
    second = np.partition(X[live], -2, axis=1)[:, -2]
    return labels, float(np.min((top[live] - second) / top[live]))


def feasible_init(ctx: PenaltyContext, hint=None) -> np.ndarray:
    """Produce an exactly feasible starting point, as round() returns it.

    With a hint matrix: project it onto the nonnegative oblique manifold
    and round. Without: same from a uniform random nonnegative matrix
    drawn from the fixed Philox(0) stream, so the result is deterministic.
    """
    if hint is not None:
        hint = np.asarray(hint, dtype=float)
        if hint.shape != (ctx.n, ctx.k):
            raise BadShape(f"hint shape {hint.shape} != ({ctx.n}, {ctx.k})")
        Xob = project_oblique_plus(hint)
    else:
        rng = np.random.default_rng(np.random.Philox(0))
        Xob = project_oblique_plus(rng.random((ctx.n, ctx.k)))
    return rounding.round(Xob.data)


def postprocess(Xr: np.ndarray, f: Objective) -> np.ndarray:
    """Refine a rounded point over its own support pattern, never increasing f.

    Xr is an exactly feasible (n, k) array, such as round() returns; its
    support is Xr > 0. Returns a read-only array: the refined point, or Xr
    itself when there is nothing to refine. Column supports stay inside
    the rounded ones, so the result is exactly feasible. Linear objectives
    (f decreasing in <C, X>) and nonnegative quadratic forms
    (f = const - tr(X^T M X), M entrywise nonnegative PSD) have
    closed-form columnwise solutions. An objective without either
    structure gets the rounded point back, and so does one whose
    refinement fails to improve f.

    Raises EmptyColumnSupport when a rounded column has no support at all.
    """
    H = Xr > 0
    if not H.any(axis=0).all():
        j = int(np.argmin(H.any(axis=0)))
        raise EmptyColumnSupport(f"rounded column {j} has empty support")
    n, k = Xr.shape
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
            out[idx, j] = v / nv if nv > 0 else Xr[idx, j]
    else:
        return Xr
    if float(f.value(out)) > float(f.value(Xr)):
        return Xr
    out.setflags(write=False)
    return out


def ep4orth_solve(f: Objective, ctx: PenaltyContext,
                  cfg: DriverConfig = DriverConfig(), *,
                  X0: Optional[ObliqueMatrix] = None,
                  X_feas: Optional[np.ndarray] = None,
                  inner_factory: Optional[Callable] = None) -> SolveReport:
    """Exact-penalty continuation for min f(X) over orthogonal nonnegative X.

    f supplies Euclidean derivatives of the smooth objective. inner_factory,
    when given, maps (start point, penalty params) to the objective actually
    minimized in that outer iteration (used for rescaled linear models and
    per-iteration quadratic surrogates); by default it is the penalized f
    itself. All anchor and descent comparisons run on the inner objective,
    while the logged KKT residual always refers to the unscaled penalty of f.

    X0 is the start (default: X_feas). X_feas is the feasible fallback,
    an exactly feasible (n, k) array such as round() returns (default:
    feasible_init(ctx)).

    Returns a SolveReport whose final matrix is exactly feasible (rounded,
    then refined unless cfg.do_postprocess is off). extra carries the
    pre-rounding iterate and the rounded point for diagnostics.

    Raises BadShape when X_feas or X0 is not (n, k), NotFeasible when
    X_feas is off the feasible set by more than FEAS_TOL.
    """
    t0 = time.perf_counter()
    if X_feas is None:
        X_feas = feasible_init(ctx)
    else:
        X_feas = np.asarray(X_feas, dtype=float)
        if X_feas.shape != (ctx.n, ctx.k):
            raise BadShape(f"feasible fallback shape {X_feas.shape} "
                           f"!= ({ctx.n}, {ctx.k})")
        viol = feasibility_violation(X_feas)
        if not viol <= FEAS_TOL:
            raise NotFeasible(f"feasible fallback violates feasibility by "
                              f"{viol!r}, more than {FEAS_TOL!r}")
    # round() freezes its output, so that array is wrapped, not copied
    Xf_ob = make_oblique(X_feas, copy=X_feas.flags.writeable)
    X = X0 if X0 is not None else Xf_ob
    X0 = None  # a start the caller handed over is freed once X moves off it
    if not isinstance(X, ObliqueMatrix):
        X = make_oblique(X)
    if X.data.shape != (ctx.n, ctx.k):
        raise BadShape(f"start point shape {X.data.shape} != ({ctx.n}, {ctx.k})")

    sigma, eps_grad = cfg.sigma0, cfg.eps_grad0
    report = SolveReport()
    total_inner = 0
    term = "max-outer"
    kkt_penalty = np.nan
    zeta2 = norm(X.data @ ctx.V) ** 2 - 1.0
    outer_done = 0
    # the settled stop needs a final point that depends on the support only
    settle = (cfg.do_postprocess
              and getattr(f, "refine_kind", "generic") != "generic")
    support = None  # row labels of the last iterate (settle on)
    unchanged = 0  # outer iterations in a row that kept those labels
    for t in range(cfg.t_max):
        params_t = PenaltyParams(sigma=sigma)
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

        give_up = None
        if (cfg.anchor == "start" and cfg.gamma2_rule is None and not settle
                and solver != "newton" and t + 1 < cfg.t_max
                and sigma <= 1e16):
            # the next outer iteration's model and anchor value, as it will
            # compute them (module docstring)
            params_n = PenaltyParams(sigma=sigma * cfg.gamma2)
            h_n = (inner_factory(X, params_n) if inner_factory
                   else PenalizedObjective(f, ctx, params_n))
            hF_n = float(h_n.value(Xf_ob.data))

            def give_up(Xd, hXd):
                # kept by this iteration, not stopped on, anchored next
                return (hXd <= hX
                        and norm(Xd @ ctx.V) ** 2 - 1.0 > cfg.tol_feas
                        and float(h_n.value(Xd)) > hF_n)

        def solve(h, start):
            if solver == "newton":
                return newton_solve(h, start, eps_grad, cfg.max_inner)
            fixed = cfg.fixed_alpha if solver == "gp-fixed" else None
            return gradient_projection_solve(
                h, start, eps_grad, cfg.max_inner, fixed,
                line_search=solver != "gp-bb", give_up=give_up)

        Xn, irep = solve(h_t, X)
        total_inner += irep.iterations
        # an abandoned solve is the rule working, not a warning
        report.flags.extend(fl for fl in irep.flags
                            if fl not in report.flags and fl != "Abandoned")

        # both subsolvers report h at the point they return
        hN = irep.final_value
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
            hA = irep2.final_value
            if hA <= hF:
                Xn, hN = Xa, hA
            else:
                Xn, hN = Xf_ob, hF

        kkt_penalty = kkt_residual_subproblem(Xn.data, ctx, params_t,
                                              f.grad(Xn.data))
        s2 = norm(Xn.data @ ctx.V) ** 2
        zeta2 = s2 - 1.0
        report.history.append({
            "t": t, "sigma": sigma, "eps_grad": eps_grad,
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
        if settle:
            labels, margin = row_support(X.data)
            same = support is not None and np.array_equal(labels, support)
            unchanged = unchanged + 1 if same else 0
            support = labels
            report.history[-1].update(support_unchanged=unchanged,
                                      support_margin=margin)
            if unchanged >= SETTLE_WINDOW and margin >= SETTLE_MARGIN:
                term = "settled"
                break
        if sigma > 1e16:
            term = "stalled"
            break
        factor = cfg.gamma2_rule(s2) if cfg.gamma2_rule else cfg.gamma2
        if factor <= 1:
            raise BadShape(f"penalty growth factor must exceed 1, got {factor!r}")
        sigma *= factor
        eps_grad = max(cfg.eta * eps_grad, EPS_GRAD_MIN)

    XR = rounding.round(X.data)
    Xfinal = XR
    if cfg.do_postprocess:
        try:
            Xfinal = postprocess(XR, f)
        except EmptyColumnSupport:
            report.flags.append("EmptyColumnSupport")
            Xfinal = XR

    report.final = Xfinal
    report.objective = float(f.value(Xfinal))
    if not np.isfinite(report.objective):
        raise NonFiniteObjective(
            f"objective at the final point is {report.objective!r}")
    report.zeta = zeta2
    report.kkt_residual = kkt_penalty
    report.feasibility = feasibility_violation(Xfinal)
    report.outer_iterations = outer_done
    report.inner_iterations = total_inner
    report.termination = term
    report.seconds = time.perf_counter() - t0
    report.extra["X_preround"] = X.data
    report.extra["X_rounded"] = XR
    report.extra["f_rounded"] = float(f.value(XR))
    return report


def projection_preset(**overrides) -> DriverConfig:
    """Driver settings for nearest-point problems with a 1-Lipschitz scaled model."""
    base = dict(sigma0=1e-2, gamma2=5.0, eta=0.8, tol_feas=1e-8,
                eps_grad0=1e-4, t_max=300, force_solver="gp-fixed",
                fixed_alpha=0.99, max_inner=2000)
    base.update(overrides)
    return DriverConfig(**base)


def kindicators_preset(**overrides) -> DriverConfig:
    """Driver settings for K-indicators: fast penalty growth, BB steps
    without a line search, the anchor policy "start".

    With "start" and a fixed growth factor, an inner solve stops early once
    the next outer iteration is sure to discard it and restart from the
    anchor (module docstring): GIVE_UP_WINDOW = 10 iterates in a row,
    where a solve the driver kept came no closer than 4.
    """
    base = dict(sigma0=10.0, gamma2=10.0, eta=0.5, tol_feas=0.1,
                eps_grad0=1e-3, t_max=60, max_inner=500,
                force_solver="gp-bb", anchor="start")
    base.update(overrides)
    return DriverConfig(**base)


def onmf_preset(hyperspectral: bool = False, **overrides) -> DriverConfig:
    """Driver settings for the matrix-factorization problems.

    Slow penalty growth (data-dependent factor). The inner solver is
    first-order while the defect ||X V||_F^2 - 1 exceeds zeta_switch and
    second-order below it. The defect on the manifold is at most k - 1, so
    the standard variant's threshold of 5 keeps the second-order solver
    throughout only for k <= 6; a larger k may start first-order (an SVD
    start of a planted k = 10 instance has defect about 6).
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
                eps_grad0=1e-3, t_max=300, max_inner=100)
    base.update(extra)
    base.update(overrides)
    return DriverConfig(**base)
