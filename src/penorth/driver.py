"""Outer loop of the exact-penalty method, rounding refinement, presets.

The driver repeatedly minimizes the penalized objective to a loosening
inner tolerance, grows the penalty weight, and stops once the
orthogonality defect ||X V||_F^2 - 1 falls below tol_feas. A fixed
feasible anchor point guards every outer iteration: when the incumbent's
penalty value exceeds the anchor's, the inner solve restarts from the
anchor. The final iterate is rounded onto the feasible set and, by
default, refined over the rounded support without ever increasing f. A
run that ends on the anchor itself, checked at entry, takes it as the
rounded point without rounding it again (when each of its rows has at
most one positive entry, round() would only renormalize its columns).

When f has a closed-form refinement (refine_kind "linear" or
"quadratic-form") and postprocessing is on, the refined point depends only
on the rounded support and the data, and the continuation often fixes
that support long before the defect reaches tol_feas. The driver then
also stops ("settled") on a support that the global bound below
certifies. That is its only early stop: where the bound stays open (or is
None: while some s_j below is 0, or for a quadratic form whose factor has
a negative entry) the run goes on to tol_feas as the paper's does.

Both closed forms certify a support directly. The refined value of
a support S is a sum over its columns: for a linear f, X_j =
P_{S_j, j} / ||P_{S_j, j}||, P = max(refine_linear_C(), 0), lowers f as
sum_j ||P_{S_j, j}|| grows; for a quadratic form f = const -
tr(X^T F F^T X) with F >= 0 (refine_quadratic_factor()), X_j = |top
eigenvector of F_{S_j} F_{S_j}^T| lowers f as
sum_j lambda_max(F_{S_j} F_{S_j}^T) grows.

The certificate is global. Each form has a closed-form bound on that
sum over every support: for a linear f the Lagrangian bound
D = 1/2 sum_j lambda_j + 1/2 sum_i max_j P_ij^2 / lambda_j with
lambda_j = ||P_{S_j, j}|| (_linear_bound_gap, one n x k pass), and for a
quadratic form the sum of the k largest eigenvalues of F F^T (Ky Fan;
_ky_fan_top, from f.refine_quadratic_spectrum(), which OpnmfObjective
computes once per solve and shares with solve_onmf's start; per support,
_quad_bound_gap takes the top eigenvalue of each column). When the
support's sum is within CERTIFY_RTOL of the bound, its refined point is a
global minimum of f over the feasible set, to that tolerance, and the
driver stops ("settled"). It asks each outer iteration's support, each
support once, and for a linear f also the start's, before the first inner
solve; every history entry carries its support's gap as bound_gap. A
quadratic form's start is not asked: it would end few solves sooner, at
the price of a different termination on runs that stop feasible at their
first outer iteration and of svd_init's column order in place of the
continuation's.

Inside a Newton solve the bound is asked too: the driver hands
newton_solve give_up(X) = "the bound certifies X's support" (_row_labels).
newton_solve asks it on each accepted iterate and, inside each of its
semismooth-Newton QPs, on each QP iterate's full-step candidate
_project_ob_plus_raw(X + D). The solve stops at the first point it holds
on and returns that point ("Abandoned" in the history entry's
inner_flags), and the outer iteration then finds that verdict cached and
stops "settled". A QP candidate is not screened, so its h may exceed the
start's; the driver takes it anyway, with neither the descent check nor
the rerun from the fallback, because the run ends on its support's
refined point: no feasible point has a lower f, to CERTIFY_RTOL, so a run
that solved on could at best tie it. Where the bound stays open the test
is paid on every accepted iterate and QP iterate: a row argmax each (and
the projection that forms a QP iterate's candidate), and the bound once
per new support. The projected-gradient path is not asked: its
iterations are cheap, and the test slowed heavy-noise projection solves.
Asking inside the Newton solve lets a run stop within its first Newton
solve rather than at the end of an outer iteration.

Under the anchor policy "start" with a fixed growth factor (gamma2_rule
unset) and no settled stop, the next outer iteration's anchor test is
known before this one solves: with sigma' = sigma * gamma2 it restarts
from the anchor X_feas when h_sigma'(X) > h_sigma'(X_feas). The driver
hands the projected-gradient solver that test as give_up, which holds on
an iterate X when this iteration would keep X (h_sigma(X) at most the
start's value, so neither the descent check nor the fallback rerun
fires), would not stop on it (||X V||_F^2 - 1 > tol_feas) and the next
iteration would anchor. The solve stops at the first iterate it holds on
("Abandoned" in the history entry's inner_flags). Wherever the full
solve's result would also have been discarded, the next iteration
restarts from the same anchor with the same settings, so the answer is
the same; whether it would have been is not known when the test holds,
so scripts/bit_identity.py --kindicators-grid checks the answers against
a tree without the test. It needs the settled stop off, and the Newton
solve's test above needs it on, so a solve is handed at most one of
them. The test is not armed in the last outer iteration or once sigma
exceeds 1e16, which ends the loop, and it builds the next iteration's
model once, at the solve's start: it is exact for inner models that do
not depend on the point they are built at, as K-indicators' does not.

Under "start" the driver evaluates the anchor after the incumbent, so
that an inner objective that keeps its last point (as K-indicators'
keeps its Procrustes target) still has it when the iteration restarts
from the anchor: one polar factor less per anchored K-indicators outer
iteration.
"""
from __future__ import annotations

import functools
import time
from typing import Callable, Optional

import numpy as np

from . import rounding
from .errors import (BadShape, EmptyColumnSupport, NonFiniteObjective,
                     NotFeasible)
from .manifold import _project_ob_plus_raw, norm, stationarity_residual
from .penalty import PenalizedObjective, zeta
from .rounding import feasibility_violation
from .subsolvers import gradient_projection_solve, newton_solve
from .types import (DriverConfig, Objective, PenaltyContext, PenaltyParams,
                    SolveReport, _as_float_matrix, make_oblique)

# largest gap between a support's refined sum and a bound on every support's,
# relative to the bound, that still certifies the support
CERTIFY_RTOL = 1e-12
# floor of the inner stationarity tolerance, which decays by eta each outer
# iteration
EPS_GRAD_MIN = 1e-7
# largest feasibility_violation a caller's feasible fallback may have
FEAS_TOL = 1e-10


def _row_labels(X: np.ndarray) -> np.ndarray:
    """The row argmax of X, -1 for a row with no positive entry (which
    rounding leaves empty): the labels of X's rounded support."""
    arg = np.argmax(X, axis=1)
    return np.where(X[np.arange(X.shape[0]), arg] > 0, arg, -1)


def _linear_bound_gap(C, labels):
    """Relative gap of a support's linear refinement to a bound on every one's.

    C is the linear gain (refine_linear_C()) and labels the row support as
    _row_labels returns it. With P = max(C, 0) and s_j the sum of P_ij^2
    over the rows labelled j, postprocess's refined point lowers f as
    sum_j lambda_j, lambda_j = sqrt(s_j), grows. sqrt(s) = min over
    lambda > 0 of s / (2 lambda) + lambda / 2 gives, for every support S,
        sum_j ||P_{S_j, j}|| <= D = 1/2 sum_j lambda_j
                                    + 1/2 sum_i max_j P_ij^2 / lambda_j,
    and D equals the support's sum_j lambda_j exactly when every labelled
    row's label is its argmax of P_ij^2 / lambda_j and no other row has a
    positive P_ij. One n x k pass. Returns (D - sum) / D; None when some
    s_j is 0, where postprocess refines column j to a coordinate vector
    instead.
    """
    rows = np.flatnonzero(labels >= 0)
    own = labels[rows]
    P2 = np.maximum(C, 0.0)
    np.square(P2, out=P2)
    s = np.bincount(own, weights=P2[rows, own], minlength=C.shape[1])
    if not (s > 0).all():
        return None
    lam = np.sqrt(s)
    total = float(lam.sum())
    P2 /= lam
    bound = 0.5 * total + 0.5 * float(P2.max(axis=1).sum())
    return (bound - total) / bound


def _ky_fan_top(f, k):
    """Sum of the k largest eigenvalues of F F^T, F =
    f.refine_quadratic_factor(), clipped at 0: the largest tr(X^T F F^T X)
    over X with orthonormal columns (Ky Fan, PNAS 1949). Read from
    f.refine_quadratic_spectrum(), the smaller of F F^T and F^T F, whose
    other eigenvalues are 0."""
    d = f.refine_quadratic_spectrum()[0]
    return float(np.maximum(d[-k:], 0.0).sum())


def _quad_bound_gap(F, labels, k, top):
    """Relative gap of a support's quadratic-form refinement to Ky Fan's bound.

    F is the objective's factor (refine_quadratic_factor(), M = F F^T),
    labels the row support as _row_labels returns it and top
    _ky_fan_top(f, k), at least tr(X^T F F^T X) at every feasible X. With
    F_j the rows of F labelled j, postprocess's refined point attains
    sum_j lambda_max(F_j F_j^T), each from the eigenvalues of F_j F_j^T as
    postprocess forms it (eigvalsh: no eigenvectors, so the last bits may
    differ from postprocess's eigh), clipped at 0. Returns (top - sum) /
    top (0 when F is 0); None when some column has no row.
    """
    rows = np.flatnonzero(labels >= 0)
    own = labels[rows]
    if not np.bincount(own, minlength=k).all():
        return None
    total = 0.0
    for j in range(k):
        FS = F[rows[own == j]]
        total += max(float(np.linalg.eigvalsh(FS @ FS.T)[-1]), 0.0)
    return (top - total) / top if top > 0 else 0.0


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
        hint = _as_float_matrix(hint, tall=True)
    else:
        rng = np.random.default_rng(np.random.Philox(0))
        hint = rng.random((ctx.n, ctx.k))
    return _round_projection(hint)


def _round_projection(C: np.ndarray) -> np.ndarray:
    """feasible_init from a finite (n, k) hint C: round() of C's projection
    onto the nonnegative oblique manifold, which is not checked again (it
    lies on the manifold by construction, and round() checks its input)."""
    return rounding.round(_project_ob_plus_raw(C))


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
    return _refine(Xr, f)[0]


def _refine(Xr: np.ndarray, f: Objective) -> tuple:
    """postprocess(Xr, f) with the values it compared: (X, f(X), f(Xr)).

    Both values are None when f has no structure to refine with, since
    then nothing was evaluated.
    """
    H = Xr > 0
    if not H.any(axis=0).all():
        j = int(np.argmin(H.any(axis=0)))
        raise EmptyColumnSupport(f"rounded column {j} has empty support")
    n, k = Xr.shape
    kind = getattr(f, "refine_kind", "generic")
    if kind == "linear":
        C = np.asarray(f.refine_linear_C(), dtype=float)
        # max(C, 0) on the support and 0 off it, in one array laid out in
        # _order(Xr, C) (np.where's rule), divided in place by the norm of
        # each column's contiguous copy
        out = np.where(H, C, 0.0)
        np.maximum(out, 0.0, out=out)
        nrm = np.array([norm(out[:, j]) for j in range(k)])
        zero = np.flatnonzero(~(nrm > 0))
        nrm[zero] = 1.0  # exact: these columns are redone below
        out /= nrm
        for j in zero:
            # all supported entries of c_j are <= 0 (or one is NaN): best
            # unit vector on the support is the coordinate at the largest
            # c_j entry
            out[:, j] = 0.0
            idx = np.nonzero(H[:, j])[0]
            out[idx[int(np.argmax(C[idx, j]))], j] = 1.0
    elif kind == "quadratic-form":
        F = np.asarray(f.refine_quadratic_factor(), dtype=float)
        out = np.zeros((n, k))
        for j in range(k):
            idx = np.nonzero(H[:, j])[0]
            FS = F[idx]
            w, vecs = np.linalg.eigh(FS @ FS.T)
            v = np.abs(vecs[:, -1])
            nv = np.linalg.norm(v)
            out[idx, j] = v / nv if nv > 0 else Xr[idx, j]
    else:
        return Xr, None, None
    del H  # not held through the evaluations
    f_out, f_r = float(f.value(out)), float(f.value(Xr))
    if f_out > f_r:
        return Xr, f_r, f_r
    out.setflags(write=False)
    return out, f_out, f_r


def ep4orth_solve(f: Objective, ctx: PenaltyContext,
                  cfg: DriverConfig = DriverConfig(), *,
                  X0: Optional[np.ndarray] = None,
                  X_feas: Optional[np.ndarray] = None,
                  inner_factory: Optional[Callable] = None) -> SolveReport:
    """Exact-penalty continuation for min f(X) over orthogonal nonnegative X.

    f supplies Euclidean derivatives of the smooth objective. inner_factory
    maps (start point, penalty params) to the objective actually minimized
    in that outer iteration (used for rescaled linear models and
    per-iteration quadratic surrogates); by default it is the penalized f
    itself. All anchor and descent comparisons run on the inner objective,
    while the logged KKT residual always refers to the unscaled penalty of f.

    X0 is the start (default: X_feas), a point on the nonnegative oblique
    manifold. X_feas is the feasible fallback, an exactly feasible (n, k)
    array such as round() returns (default: feasible_init(ctx)). Both are
    checked once with make_oblique: a read-only array is used as it is,
    a writeable one is copied, so the caller's arrays are never frozen
    or written.

    Returns a SolveReport whose final matrix is exactly feasible (rounded,
    then refined unless cfg.do_postprocess is off). extra carries the
    pre-rounding iterate and the rounded point for diagnostics; a run that
    ends on X_feas, with at most one positive entry in each row, reports
    X_feas itself as the rounded point.

    Raises BadShape when X_feas or X0 is not (n, k), NotFeasible when
    X_feas is off the feasible set by more than FEAS_TOL, and make_oblique's
    errors when X0 is off the nonnegative oblique manifold.
    """
    t0 = time.perf_counter()
    if inner_factory is None:
        def inner_factory(X, params):
            return PenalizedObjective(f, ctx, params)
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
    # round() freezes its output, so that array is checked, not copied
    X_feas = make_oblique(X_feas, copy=X_feas.flags.writeable)
    if X0 is None:
        X = X_feas
    else:
        X0 = np.asarray(X0, dtype=float)
        if X0.shape != (ctx.n, ctx.k):
            raise BadShape(f"start point shape {X0.shape} != ({ctx.n}, {ctx.k})")
        X = make_oblique(X0, copy=X0.flags.writeable)
        X0 = None  # a start the caller handed over is freed once X moves off it

    sigma, eps_grad = cfg.sigma0, cfg.eps_grad0
    report = SolveReport()
    total_inner = 0
    term = "max-outer"
    kkt_penalty = np.nan
    zeta2 = zeta(X, ctx)
    outer_done = 0
    # the settled stop needs a final point that depends on the support
    # only, and a bound on every support's: it is on where bound_gap is set
    kind = getattr(f, "refine_kind", "generic")
    bound_gap = None  # row labels -> the support's relative gap to a bound
    if cfg.do_postprocess and kind == "linear":
        bound_gap = functools.partial(
            _linear_bound_gap, np.asarray(f.refine_linear_C(), dtype=float))
    elif cfg.do_postprocess and kind == "quadratic-form":
        F = np.asarray(f.refine_quadratic_factor(), dtype=float)
        if (F >= 0).all():
            bound_gap = functools.partial(_quad_bound_gap, F, k=ctx.k,
                                          top=_ky_fan_top(f, ctx.k))
    gaps = {}  # support (label bytes) -> bound_gap, each support asked once

    def bound_gap_of(labels):
        key = labels.tobytes()
        if key not in gaps:
            gaps[key] = bound_gap(labels)
        return gaps[key]

    def globally_certified(labels):
        gap = bound_gap_of(labels)
        return gap is not None and gap <= CERTIFY_RTOL

    # _row_labels(X) where the bound needs it, each point's once. A linear
    # f's start support is asked before any inner solve (module
    # docstring); a solve the bound ends there reports the start's
    # residual under sigma0
    labels = None
    if kind == "linear" and bound_gap is not None:
        labels = _row_labels(X)
    start_certified = labels is not None and globally_certified(labels)
    if start_certified:
        term = "settled"
        kkt_penalty = stationarity_residual(
            X, PenalizedObjective(f, ctx, PenaltyParams(sigma=sigma)).grad(X))
    for t in range(0 if start_certified else cfg.t_max):
        params_t = PenaltyParams(sigma=sigma)
        h_t = inner_factory(X, params_t)
        # the point the solve most likely starts at last, for an inner
        # objective that keeps its last point: the incumbent, or under
        # "start" the anchor (module docstring)
        if cfg.anchor == "start":
            hX = float(h_t.value(X))
            hF = float(h_t.value(X_feas))
        else:
            hF = float(h_t.value(X_feas))
            hX = float(h_t.value(X))
        anchored = False
        if cfg.anchor == "start" and hX > hF:
            X = X_feas
            anchored = True
            h_t = inner_factory(X, params_t)
            hX = hF = float(h_t.value(X))  # X is X_feas now

        solver = cfg.force_solver or (
            "gp" if zeta(X, ctx) > cfg.zeta_switch else "newton")

        give_up = None
        settling = solver == "newton" and bound_gap is not None
        if settling:
            # the first accepted iterate or QP candidate whose support the
            # bound certifies ends the solve, and the settle block below
            # ends the run on its cached verdict (module docstring)
            def give_up(Xd):
                return globally_certified(_row_labels(Xd))
        elif (cfg.anchor == "start" and cfg.gamma2_rule is None
                and bound_gap is None and solver != "newton"
                and t + 1 < cfg.t_max and sigma <= 1e16):
            # the next outer iteration's model and anchor value, as it will
            # compute them (module docstring)
            params_n = PenaltyParams(sigma=sigma * cfg.gamma2)
            h_n = inner_factory(X, params_n)
            hF_n = float(h_n.value(X_feas))

            def give_up(Xd, hXd):
                # kept by this iteration, not stopped on, anchored next
                return (hXd <= hX
                        and zeta(Xd, ctx) > cfg.tol_feas
                        and float(h_n.value(Xd)) > hF_n)

        def solve(h, start):
            if solver == "newton":
                return newton_solve(h, start, eps_grad, cfg.max_inner,
                                    give_up=give_up)
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
        # a certified support ends the run on its refinement, whatever h
        # says of the point that carries it: no fallback to weigh it against
        certified_exit = settling and "Abandoned" in irep.flags
        if not descent_ok and not certified_exit:
            Xn, hN = X, hX  # keep the incumbent; subsolvers should not ascend
            if "InnerAscent" not in report.flags:
                report.flags.append("InnerAscent")
        if hN > hF and not certified_exit:
            # warm-started branch ended worse than the feasible fallback
            # under this outer model: redo the solve from the fallback and
            # accept that instead, so the accepted outer value never
            # exceeds the fallback's value
            anchored = True
            # neither the discarded branch nor its start is held through
            # the redo
            X = X_feas
            del Xn
            h_t = inner_factory(X_feas, params_t)
            hF = float(h_t.value(X_feas))
            Xn, irep2 = solve(h_t, X_feas)
            total_inner += irep2.iterations
            hN = irep2.final_value
            if not hN <= hF:
                Xn, hN = X_feas, hF

        kkt_penalty = stationarity_residual(
            Xn, PenalizedObjective(f, ctx, params_t).grad(Xn))
        zeta2 = zeta(Xn, ctx)
        report.history.append({
            "t": t, "sigma": sigma, "eps_grad": eps_grad,
            "solver": solver, "inner_iterations": irep.iterations,
            "kkt_inner": irep.kkt_residual, "kkt_penalty": kkt_penalty,
            "zeta2": zeta2, "h_start": hX, "h_end": hN,
            "descent_ok": bool(descent_ok), "anchored": anchored,
            "trials": irep.trials, "inner_flags": irep.flags,
        })
        X = Xn
        del Xn  # X alone holds the point: a restart from X_feas frees it
        outer_done = t + 1
        feasible = zeta2 <= cfg.tol_feas
        certified = False
        if bound_gap is not None:
            # every entry gets its support's gap, the last one too, each
            # support's once, and no stop test on a feasible stop (module
            # docstring)
            labels = _row_labels(X)
            report.history[-1]["bound_gap"] = bound_gap_of(labels)
            certified = not feasible and globally_certified(labels)
            report.history[-1]["support_certified"] = certified
        if feasible:
            term = "feasibility-tol"
            break
        if certified:
            term = "settled"
            break
        if sigma > 1e16:
            term = "stalled"
            break
        # the rule reads s2 = ||X V||_F^2, which zeta2 + 1 is to the bit
        # (s2 - 1 is exact for s2 in [0.5, 2^53))
        factor = (cfg.gamma2_rule(zeta2 + 1.0) if cfg.gamma2_rule
                  else cfg.gamma2)
        if factor <= 1:
            raise BadShape(f"penalty growth factor must exceed 1, got {factor!r}")
        sigma *= factor
        eps_grad = max(cfg.eta * eps_grad, EPS_GRAD_MIN)

    if X is X_feas and labels is None:
        labels = _row_labels(X)
    # the fallback, checked at entry, is its own rounding when each row has
    # at most one positive entry (make_oblique let no negative one through):
    # round() would only divide its unit columns by their norms again
    if X is X_feas and np.count_nonzero(X) == np.count_nonzero(labels >= 0):
        XR = X_feas
    else:
        XR = rounding.round(X)
    Xfinal, f_final, f_rounded = XR, None, None
    if cfg.do_postprocess:
        # round() leaves a positive entry in every column, as the checked
        # fallback's unit columns do, so _refine's empty-support check
        # cannot fire here
        Xfinal, f_final, f_rounded = _refine(XR, f)
    if f_rounded is None:  # not refined: the final point is XR
        f_final = f_rounded = float(f.value(XR))

    report.final = Xfinal
    report.objective = f_final
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
    report.extra["X_preround"] = X
    report.extra["X_rounded"] = XR
    report.extra["f_rounded"] = f_rounded
    if bound_gap is not None:
        gap = bound_gap_of(labels)
        if gap is not None:
            report.extra["bound_gap"] = gap
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

    With "start" and a fixed growth factor, an inner solve stops at the
    first iterate that the next outer iteration would discard for a
    restart from the anchor (module docstring).
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
