"""Inner solvers for the penalty subproblems.

Two families:

* gradient_projection_solve: projected gradient on the nonnegative oblique
  manifold, with one of three step rules: a Barzilai-Borwein (BB) step and
  a nonmonotone (max-window) line search; a BB step with no line search
  (K-indicators, where the line search only adds trial points); or a
  fixed step for objectives whose gradient is 1-Lipschitz.

* newton_solve: trust-region-like second-order method. Each iteration
  builds a quadratic model with proximal weight tau, obtains a direction
  from a semismooth-Newton solve of the model's first-order system over
  the per-column affine slices, validates an angle condition against the
  projected steepest-descent direction, screens trial points against a
  guaranteed model-decrease bound, and accepts by actual/predicted ratio.
  Its safeguards are the paper's fixed constants: a ratio >= ETA1 accepts;
  tau starts at TAU0 and is scaled by BETA0 (ratio >= ETA2), BETA1 (>= ETA1)
  or BETA2 (below); C1 and C2 are the angle and model-decrease constants;
  the curvature estimate starts at KAPPA_HAT0, doubles on each failed check
  and is capped at KAPPA_CAP. The caller sets only the stopping rule:
  the residual tolerance, the iteration budget and, as for the
  projected-gradient loop, an optional give-up test, asked on each iterate
  and on each QP iterate's full-step candidate.

The semismooth-Newton QP (solve_qp_subproblem) has three exits besides
its budget. It converges when its fixed-point residual reaches its
tolerance (1e-8). It stops on the forcing term when that residual is at
most forcing times its first one: newton_solve asks each QP for
min(FORCING_MAX, sqrt(res)) of it, res its own stationarity residual, so
the QPs are loose far from a stationary point and tight near one, the
inexact-Newton rule of Dembo, Eisenstat and Steihaug (SIAM J. Numer.
Anal. 1982) with the forcing term of Eisenstat and Walker (SIAM J. Sci.
Comput. 1996). And it stops certified on the first iterate whose
direction a give-up test holds on: newton_solve hands it its own test,
asked on the iterate's full-step candidate, and returns that candidate.

The per-column slice projection (onto {z : x^T z = 1, z >= 0}, in
manifold.py) is the geometric workhorse shared by the tangent-cone
projection and the semismooth Newton solver. It projects all columns in
one batched pass, with no Python loop over columns or breakpoints. Each
evaluation of the semismooth Newton fixed-point map costs one such
projection and one Hessian product, so solve_qp_subproblem evaluates the
map once per point: the image of an accepted line-search trial, or of the
fixed-point fallback step, is carried into the next iteration instead of
being computed again.

What depends on the point alone is formed once per point. Every
projection of one QP solve is onto the slices of the same anchor, so the
solve builds one slice_projector, which checks the anchor and keeps its
support once. The Hessian stays fixed for a whole Newton iteration, so
newton_solve builds the objective's operator hess_at(X) once per
iteration and applies it in every QP and model evaluation.

Each semismooth Newton step solves its Jacobian system with penorth's own
restarted GMRES (gmres below). The systems are small (n*k unknowns, a few
products per solve), so a general-purpose Krylov wrapper's per-call
set-up would cost more than the arithmetic; this one performs the
floating-point operations of scipy 1.17's gmres in the same order, and
its Givens rotations are LAPACK's dlartg (_lartg). Unlike scipy's, it
gives up after a restart cycle that barely lowers the true residual
(GMRES_STALL): the Newton step then falls back to a fixed-point step, as
it did after the remaining cycles.
"""
from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Callable, Optional

import numpy as np

from .errors import SolverError
# project_delta_cols is unused here but stays importable from this module:
# perfbench/spans.py looks it up on subsolvers to trace the slice projection
from .manifold import (_project_ob_plus_raw, inner, norm,  # noqa: F401
                       project_delta_cols, project_tangent_T, projected_step,
                       slice_projector, stationarity_residual)
from .types import Objective, make_oblique, SUPPORT_ZERO_TOL


# LAPACK's dsafmin = radix**max(minexponent - 1, 1 - maxexponent) for
# doubles, its reciprocal, and the bounds dlartg squares without scaling
_SAFMIN = 2.0 ** -1022
_SAFMAX = 2.0 ** 1022
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 2)
_EPS = float(np.finfo(float).eps)
GMRES_RESTART = 20
# a restart cycle that leaves the true residual above this fraction of the
# previous cycle's (of ||b|| for the first) ends gmres with failure. Over
# every call of the onmf-gn benchmark solves and of solve_onmf(variant="gn")
# on gen_onmf(200, 600, k, 0, seed), k = 6-10, seeds 0-5, no cycle that a
# converging call went on from kept more than 0.9947 of its residual (0.99
# would cut two such calls); the 100 calls that failed, all at k = 10 seed
# 5, ran 200 cycles at rounding level and stop after 2-6
GMRES_STALL = 0.999


def _lartg(f: float, g: float) -> tuple:
    """Givens rotation (c, s, r) with [c s; -s c] [f; g] = [r; 0].

    LAPACK's dlartg (3.10 and later), branch for branch: the same bits
    as scipy.linalg.lapack.dlartg.
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    f1 = abs(f)
    g1 = abs(g)
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs = f / u
    gs = g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(A, b: np.ndarray, rtol: float, maxiter: int) -> tuple:
    """Solve A x = b by restarted GMRES(20) (Saad and Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986) from x = 0 to ||b - A x|| <= rtol ||b||,
    with at most maxiter (>= 1) restart cycles.

    A is any object whose _matvec maps a 1-D float array to a new one; it
    is looked up at every product. Returns (x, 0) on convergence and
    (x, maxiter) otherwise, (b, 0) when b = 0. A cycle that ends with the
    true residual above GMRES_STALL times the previous cycle's (||b|| for
    the first) has stalled: the call returns failure there instead of
    running the remaining cycles. Until then this is scipy 1.17's
    scipy.sparse.linalg.gmres(A, b, rtol=rtol, atol=0, maxiter=maxiter)
    with no preconditioner, operation for operation, so x has the same
    bits whenever the call converges, breaks down or runs out of cycles
    without a stall: modified Gram-Schmidt, the h1 <= eps * h0 breakdown
    test, Givens rotations by dlartg, back substitution in place, and the
    inner tolerance ptol adapted after each cycle from the true residual.
    """
    n = len(b)
    bnrm2 = norm(b)
    atol = max(0.0, float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0
    x = np.zeros(n)
    if bnrm2 < atol:
        return x, 0
    restart = min(GMRES_RESTART, n)
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    presid = 0.0
    v = np.empty((restart + 1, n))
    r, rprev = b, bnrm2
    for _ in range(maxiter):
        v[0] = r
        beta = norm(v[0])
        v[0] *= 1 / beta
        S = [beta]  # right-hand side of the rotated Hessenberg system
        hcols = []  # column j of the Hessenberg matrix, rotated
        rots = []
        breakdown = False
        for col in range(restart):
            w = A._matvec(v[col])
            h0 = norm(w)
            hc = []
            for k in range(col + 1):
                tmp = float(v[k].dot(w))
                hc.append(tmp)
                w -= tmp * v[k]
            h1 = norm(w)
            v[col + 1] = w
            if h1 <= _EPS * h0:  # the Krylov space is invariant: exact solve
                h1 = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1
            hc.append(h1)
            for k, (c, s) in enumerate(rots):
                n0, n1 = hc[k], hc[k + 1]
                hc[k], hc[k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, hc[col] = _lartg(hc[col], h1)
            rots.append((c, s))
            hcols.append(hc)
            tmp = -s * S[col]
            S[col] = c * S[col]
            S.append(tmp)
            presid = abs(tmp)
            if presid <= ptol or breakdown:
                break
        if hcols[col][col] == 0:
            S[col] = 0.0
        y = S[:col + 1]
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= hcols[k][k]
                tmp = y[k]
                hk = hcols[k]
                for i in range(k):
                    y[i] -= tmp * hk[i]
        if y[0] != 0:
            y[0] /= hcols[0][0]
        x += np.array(y) @ v[:col + 1]
        r = b - A._matvec(x)
        rnorm = norm(r)
        if rnorm <= atol or breakdown or rnorm > GMRES_STALL * rprev:
            break
        rprev = rnorm
        if presid <= ptol:  # the inner test passed but the true one failed
            ptol_max_factor = max(_EPS, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter


# BB steps lie in [BB_FLOOR, BB_CAP], and without the line search also at
# most BB_CAP_PER_COL * k. The line search wants a value at most
# max(last WINDOW values) - ARMIJO ||trial - X||^2 and shrinks the step by
# BACKTRACK at most MAX_BACKTRACKS times.
BB_FLOOR = 1e-10
BB_CAP = 1e10
BB_CAP_PER_COL = 10.0
WINDOW = 10
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 20


# newton_solve's safeguards (roles in the module docstring)
TAU0 = 1.0
ETA1 = 0.01
ETA2 = 0.9
BETA0 = 0.98
BETA1 = 1.0
BETA2 = 1.3
C1 = 0.1
C2 = 0.5
KAPPA_HAT0 = 10.0
KAPPA_CAP = 1e12
# each QP is solved to the forcing term min(FORCING_MAX, sqrt(res)) of its
# first residual, res the Newton iterate's stationarity residual (Eisenstat
# and Walker, SIAM J. Sci. Comput. 1996: a superlinear rate as res -> 0)
FORCING_MAX = 0.5


@dataclasses.dataclass
class InnerReport:
    """What a subsolver did: iterations, final value, residuals, flags."""

    iterations: int = 0
    final_value: float = np.nan
    step_norm: float = np.nan
    kkt_residual: float = np.nan
    converged: bool = False
    flags: list = dataclasses.field(default_factory=list)
    trials: list = dataclasses.field(default_factory=list)


def gradient_projection_solve(h: Objective, X0: np.ndarray, tol: float,
                              max_iter: int,
                              fixed_alpha: Optional[float] = None,
                              line_search: bool = True,
                              give_up: Optional[Callable] = None) -> tuple:
    """Minimize h over the nonnegative oblique manifold by projected gradient.

    The step rule: with fixed_alpha, that constant step and no line search
    (valid when the gradient of h is L-Lipschitz with L * fixed_alpha < 1).
    Otherwise a BB step clipped to [BB_FLOOR, BB_CAP]; with line_search it
    starts at 1/||G|| and passes the nonmonotone Armijo test, without it
    it starts at 1, is also capped at BB_CAP_PER_COL * k and every trial
    is taken.

    Stops when the projected step norm drops to tol, or after max_iter
    iterations. Returns (X, InnerReport) with X a checked, read-only
    array; the final value never exceeds h(X0) (best-iterate safeguard).
    A failed nonmonotone line search sets the "LineSearchFailure" flag
    and returns the best iterate seen. A read-only X0 is taken as it is
    and may come back as X; a writeable one is checked and copied first,
    so the caller's array is never frozen or written. Each new
    iterate gets h.value, then h.grad, on the same array object, and no
    array h has seen is written afterwards.

    give_up, when given, is called as give_up(X, h(X)) on each accepted
    iterate that does not meet tol, after h.grad(X). On the first iterate
    it holds on, the loop stops, sets the "Abandoned" flag and returns that
    iterate, not the best one: the caller's test says what it needs of the
    point it gets back.

    Few n x k arrays are live at once: the step S = X_new - X is formed
    once, for the step norm, the Armijo test and the BB step, and of the
    BB differences S and Z = G_new - G only the scalars <S, S> and
    |<S, Z>| are carried to the next step, so the previous iterate and
    gradient are dropped as soon as the new gradient exists. The
    fixed-step rule drops the old gradient once the step is taken, before
    it asks for the new one.
    """
    X = X0  # iterates are new arrays, never written in place
    if not isinstance(X, np.ndarray) or X.flags.writeable:
        X = make_oblique(X)  # X may be returned frozen: not the caller's
    fX = float(h.value(X))
    G = np.asarray(h.grad(X), dtype=float)
    hist = deque([fX], maxlen=WINDOW)
    best_X, best_f = X, fX
    flags = []
    ss = sz = None  # <S, S> and |<S, Z>| of the last step, for BB
    bb = fixed_alpha is None
    alpha_cap = BB_CAP if line_search else min(BB_CAP, BB_CAP_PER_COL * X.shape[1])
    step = np.inf
    converged = False
    abandoned = False
    it = 0
    while it < max_iter:
        it += 1
        if not bb:
            alpha = fixed_alpha
        else:
            if ss is None:
                alpha = 1.0 / (norm(G) + 1e-16) if line_search else 1.0
            else:
                alpha = ss / sz if sz > 0 else BB_CAP
            alpha = min(max(alpha, BB_FLOOR), alpha_cap)
        if line_search and bb:
            fmax = max(hist)
            ok = False
            for _ in range(MAX_BACKTRACKS + 1):
                Xn = projected_step(X, alpha, G)
                S = Xn - X
                ss = inner(S, S)
                fn = float(h.value(Xn))
                if fn <= fmax - ARMIJO * ss:
                    ok = True
                    break
                del Xn, S  # not held through the next trial
                alpha *= BACKTRACK
            if not ok:
                flags.append("LineSearchFailure")
                break
        else:
            Xn = projected_step(X, alpha, G)
            if not bb:
                del G  # the fixed step needs no gradient difference
            S = Xn - X
            fn = float(h.value(Xn))
            if bb:
                ss = inner(S, S)
        # <S, S> and norm(S) sum a contiguous S in one order: one dot
        step = math.sqrt(ss) if bb else norm(S)
        X, fX = Xn, fn
        if bb:
            Gn = np.asarray(h.grad(X), dtype=float)
            sz = abs(inner(S, Gn - G))  # Z = Gn - G lives for this product
            G = Gn
        else:
            G = np.asarray(h.grad(X), dtype=float)
        del S  # not held through the next step
        hist.append(fX)
        if fX < best_f:
            best_X, best_f = X, fX
        if step <= tol:
            converged = True
            break
        if give_up is not None and give_up(X, fX):
            abandoned = True
            flags.append("Abandoned")
            break
    if fX > best_f and not abandoned:
        X, fX = best_X, best_f
        G = np.asarray(h.grad(X), dtype=float)
    kkt = stationarity_residual(X, G)
    rep = InnerReport(iterations=it, final_value=fX, step_norm=step,
                      kkt_residual=kkt, converged=converged, flags=flags)
    return make_oblique(X, copy=False), rep


class _SSNJacobian:
    """Generalized Jacobian of the SSN residual Z - proj(Z - alpha * grad)
    at one point, as an operator on the flattened n x k matrices.

    The projection's Jacobian keeps the active entries (active mask) and
    removes, per column j, the component along x_j restricted to them.
    gmres applies it through _matvec, looked up on the instance at every
    product, so a caller may shadow _matvec on one instance to watch it.
    """

    def __init__(self, Xd, hess_apply, alpha, active):
        self.shape = Xd.shape
        self.Xd = Xd
        self.hess_apply = hess_apply
        self.alpha = alpha
        self.active = active
        self.xa = Xd * active
        den = np.einsum("ij,ij->j", Xd, self.xa)
        self.live = den > 1e-16
        self.safe_den = np.where(self.live, den, 1.0)

    def _matvec(self, hvec):
        H = hvec.reshape(self.shape)
        W = H - self.alpha * self.hess_apply(H)
        Wa = W * self.active
        scale = np.where(self.live,
                         np.einsum("ij,ij->j", self.Xd, Wa) / self.safe_den, 0.0)
        return (H - (Wa - self.xa * scale)).ravel()


def solve_qp_subproblem(X: np.ndarray, grad_m: np.ndarray,
                        hess_m_apply: Callable[[np.ndarray], np.ndarray],
                        alpha: float, tol: float = 1e-8,
                        max_iter: int = 50, forcing: float = 0.0,
                        give_up: Optional[Callable] = None) -> tuple:
    """Solve min <grad_m, D> + (1/2) <D, hess_m[D]> over the tangent cone
    T(X) = {D : x_j^T d_j = 0, x_j + d_j >= 0} by semismooth Newton.

    Works in the shifted variable Z = X + D over the per-column slices
    {z : x_j^T z = 1, z >= 0} and drives the projected fixed-point residual
        F(Z) = Z - proj(Z - alpha * (grad_m + hess_m[Z - X]))
    down. Newton steps use the projection's generalized (support-masked)
    Jacobian and a matrix-free Krylov solve; steps that do not cut the
    residual by 10 percent fall back to the fixed-point map.

    Returns (D, info) with D exactly in T(X); info["exit"] names which of
    four exits ended the solve, after info["iterations"] iterates:
    * "converged": ||F|| <= tol at the projected point returned;
    * "forcing": ||F|| <= forcing * r_1, above tol, with r_1 the first
      iterate's residual: the inexact-Newton stop of Dembo, Eisenstat and
      Steihaug (SIAM J. Numer. Anal. 1982), for a caller that needs the
      direction only to that relative accuracy (forcing 0 turns it off);
    * "certified": give_up, when given, is called as give_up(D) with the
      direction D of each iterate that meets neither test above, and this
      is the first D it held on;
    * "max-iter": the budget ran out; "MaxIterReached" is in info["flags"].
    info["converged"] is True on the first two. Callers validate directions
    independently, so no exit is fatal.
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    grad_m = np.asarray(grad_m, dtype=float)
    project = slice_projector(X)

    def fixed_point(Z):
        Gm = grad_m + hess_m_apply(Z - X)
        return project(Z - alpha * Gm)

    Z = fixed_point(X)  # one projected-gradient step from D = 0
    PC = fixed_point(Z)  # kept equal to fixed_point(Z) as Z moves
    flags = []
    info = {"converged": False, "residual": np.inf, "iterations": 0,
            "flags": flags, "exit": "max-iter"}
    stop = tol
    for it in range(1, max_iter + 1):
        # convergence is certified at the projected point, which lies in the
        # slices exactly and is what we return
        PPC = fixed_point(PC)
        resP = norm(PC - PPC)
        if it == 1:
            stop = max(tol, forcing * resP)
        if resP <= stop:
            info.update(converged=True, residual=resP, iterations=it,
                        exit="converged" if resP <= tol else "forcing")
            return PC - X, info
        if give_up is not None and give_up(PC - X):
            info.update(residual=resP, iterations=it, exit="certified")
            return PC - X, info
        F = Z - PC
        nF = norm(F)
        active = PC > SUPPORT_ZERO_TOL
        jac = _SSNJacobian(X, hess_m_apply, alpha, active)
        sol, code = gmres(jac, -F.ravel(), rtol=min(0.1, max(nF, 1e-14)),
                          maxiter=200)
        stepped = False
        if code == 0 and np.isfinite(sol).all():
            H = sol.reshape(n, k)
            t = 1.0
            for _ in range(11):
                Zt = Z + t * H
                PZt = fixed_point(Zt)
                nFt = norm(Zt - PZt)
                if nFt <= 0.9 * nF:
                    Z, PC = Zt, PZt
                    stepped = True
                    break
                t *= 0.5
        if not stepped:
            Z, PC = PC, PPC  # fixed-point fallback step
    flags.append("MaxIterReached")
    info.update(converged=False,
                residual=norm(PC - fixed_point(PC)),
                iterations=max_iter)
    return PC - X, info


def newton_solve(h: Objective, X0: np.ndarray, tol: float,
                 max_iter: int, give_up: Optional[Callable] = None) -> tuple:
    """Second-order solve of min h over the nonnegative oblique manifold.

    Iterates until the stationarity residual ||min(X, rgrad h)||_F falls to
    tol, for at most max_iter iterations. Monotone: only trials with
    sufficient actual decrease are accepted, so the final value never
    exceeds h(X0). Returns (X, InnerReport) with X a checked, read-only,
    C-ordered array, never X0 itself. The report's `trials` list records,
    for every screened trial, the model value, the guaranteed-decrease
    bound it was checked against, and the accept/reject outcome. X0 is
    checked and copied on entry, each accepted trial checked once.

    Each QP is solved only to the forcing term min(FORCING_MAX, sqrt(res))
    of its first residual, res the current stationarity residual, or to
    1e-8 if that is looser; each trials entry also records the SSN
    iterations its iteration's QPs took (ssn_iterations) and the last
    QP's exit (qp_exit, as solve_qp_subproblem's info["exit"]).

    give_up, when given, is called as give_up(Y) on two kinds of point:
    each accepted trial, once it is the iterate (a rejected trial is never
    shown to it), and, inside each QP, every SSN iterate's full-step
    candidate Y = _project_ob_plus_raw(X + D), the first trial point the
    screening below would try for that direction. On the first point it
    holds on, the loop stops, sets the "Abandoned" flag and returns that
    point, unscreened if it is a QP candidate: the caller's test says what
    it needs of the point it gets back. A candidate's iteration gets a
    trials entry with qp_exit "certified", no model and accepted False.
    """
    # a row-major copy, as every trial is (manifold._order)
    X = make_oblique(X0)
    fX = float(h.value(X))
    tau = TAU0
    kappa = KAPPA_HAT0
    flags = []
    trials = []
    res = np.inf
    step = np.inf
    converged = False
    G_at_X = False  # G and res were evaluated at the current X
    abandoned = False
    it = 0
    while it < max_iter:
        it += 1
        G = np.asarray(h.grad(X), dtype=float)
        radial = np.einsum("ij,ij->j", X, G)
        rg = G - X * radial
        res = norm(np.minimum(X, rg))
        G_at_X = True
        if res <= tol:
            converged = True
            break
        pg = project_tangent_T(X, -rg)
        npg = norm(pg)
        if npg <= 1e-14:
            converged = True  # no feasible first-order descent direction left
            break

        hess = h.hess_at(X)

        def hess_r(W):
            # Riemannian Hessian formula extended linearly off the tangent
            # space; the semismooth solver needs a linear operator on all
            # of R^{n x k}
            return np.asarray(hess(W), dtype=float) - W * radial

        held = []  # the QP candidate give_up held on

        def qp_give_up(Dq):
            Yq = _project_ob_plus_raw(X + Dq)
            if give_up(Yq):
                held.append(Yq)
                return True
            return False

        # -- direction: semismooth Newton, angle-validated ------------------
        D = None
        c1_eff = C1
        used = "ssn"
        forcing = min(FORCING_MAX, math.sqrt(res))
        ssn = 0
        qp_exit = None
        while True:
            alpha_qp = 1.0 / (kappa + tau)
            tau_now = tau
            try:
                Dc, qp = solve_qp_subproblem(
                    X, rg, lambda W: hess_r(W) + tau_now * W, alpha_qp,
                    forcing=forcing,
                    give_up=None if give_up is None else qp_give_up)
                ssn += qp["iterations"]
                qp_exit = qp["exit"]
            except SolverError:
                Dc = None
            if held:
                break
            if Dc is not None:
                nD = norm(Dc)
                if nD > 0 and inner(rg, Dc) <= -C1 * npg * nD:
                    D = Dc
                    break
            kappa *= 2.0
            tau *= BETA2
            if kappa > KAPPA_CAP:
                flags.append("CurvatureEstimateExhausted")
                D = pg
                c1_eff = 1.0
                used = "pg"
                break
        if held:
            trials.append({"iter": it, "model": None, "bound": None,
                           "direction": used, "rho": None, "accepted": False,
                           "satisfied": False, "tau": tau, "kappa": kappa,
                           "ssn_iterations": ssn, "qp_exit": qp_exit})
            step = norm(held[0] - X)
            X = make_oblique(held[0], copy=False)  # a fresh array
            fX = float(h.value(X))
            G_at_X = False
            abandoned = True
            flags.append("Abandoned")
            break

        # -- trial point screened against the model-decrease bound ----------
        def m_val(Y):
            Dm = Y - X
            return (inner(G, Dm)
                    + 0.5 * inner(Dm, np.asarray(hess(Dm), dtype=float))
                    + 0.5 * tau * inner(Dm, Dm))

        a_eff = 2.0 * c1_eff ** 2 * C2 * (1.0 - C2)
        nD = norm(D)
        # achievable decreases smaller than rounding error in h itself are
        # not evidence of a bad curvature estimate; stop instead of
        # escalating kappa forever on noise
        noise_floor = 16.0 * np.finfo(float).eps * (1.0 + abs(fX))
        Y = None
        mY = np.nan
        bound = np.nan
        at_noise_floor = False
        while True:
            bound = -a_eff / (kappa + tau) * npg * npg
            alpha_l = 2.0 * c1_eff * (1.0 - C2) * npg / ((kappa + tau) * nD)
            cands = [_project_ob_plus_raw(X + D),
                     _project_ob_plus_raw(X + alpha_l * D)]
            mvals = [m_val(Yc) for Yc in cands]
            i = int(np.argmin(mvals))
            Yc, mc = cands[i], mvals[i]
            if abs(mc) <= noise_floor:
                flags.append("ModelAtNoiseFloor")
                at_noise_floor = True
                break
            if mc <= bound:
                Y, mY = Yc, mc
                break
            kappa *= 2.0
            if kappa > KAPPA_CAP:
                flags.append("CurvatureEstimateExhausted")
                break
        if at_noise_floor:
            break
        if Y is None:
            tau *= BETA2  # no certified trial; tighten the model and retry
            trials.append({"iter": it, "model": None, "bound": bound,
                           "direction": used, "rho": None, "accepted": False,
                           "satisfied": False, "tau": tau, "kappa": kappa,
                           "ssn_iterations": ssn, "qp_exit": qp_exit})
            continue

        fY = float(h.value(Y))
        rho = (fY - fX) / mY
        accepted = rho >= ETA1
        trials.append({"iter": it, "model": mY, "bound": bound,
                       "direction": used, "rho": rho, "accepted": accepted,
                       "satisfied": True, "tau": tau, "kappa": kappa,
                       "ssn_iterations": ssn, "qp_exit": qp_exit})
        if accepted:
            step = norm(Y - X)
            X, fX = make_oblique(Y, copy=False), fY  # Y is a fresh array
            G_at_X = False
            if give_up is not None and give_up(X):
                abandoned = True
                flags.append("Abandoned")
                break
        if rho >= ETA2:
            tau = BETA0 * tau
        elif rho >= ETA1:
            tau = BETA1 * tau
        else:
            tau = BETA2 * tau
        tau = min(max(tau, 1e-12), 1e14)
    if not converged and not abandoned and it >= max_iter:
        flags.append("MaxIterReached")
    if not G_at_X:
        res = stationarity_residual(X, np.asarray(h.grad(X), dtype=float))
    rep = InnerReport(iterations=it, final_value=fX, step_norm=step,
                      kkt_residual=res, converged=converged or res <= tol,
                      flags=flags, trials=trials)
    return X, rep
