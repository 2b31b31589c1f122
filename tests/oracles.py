"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive: dense linear algebra, exhaustive
enumeration, central finite differences. Nothing borrows logic from the
package beyond calling its public constructors, so an agreement between
the two is evidence, not tautology.
"""

import itertools

import numpy as np


# --------------------------------------------------------------------------
# random draws


def rng_for(seed):
    return np.random.default_rng(np.random.Philox(seed))


def random_unit_columns(rng, n, k, strictly_positive=False):
    """A point with unit nonnegative columns, generic (no zero entries
    unless asked otherwise)."""
    X = rng.uniform(0.1 if strictly_positive else 0.0, 1.0, size=(n, k))
    X[0] += 0.5  # keep every column norm safely away from 0
    return X / np.linalg.norm(X, axis=0)


def random_feasible(rng, n, k):
    """Disjoint supports, unit columns: an exactly feasible point."""
    while True:
        assign = rng.integers(0, k, size=n)
        if np.unique(assign).size == k:
            break
    X = np.zeros((n, k))
    for i in range(n):
        X[i, assign[i]] = rng.uniform(0.1, 1.0)
    return X / np.linalg.norm(X, axis=0)


def random_tangent(rng, X):
    """Per-column orthogonal to X, the tangent space of the unit-sphere
    product."""
    D = rng.standard_normal(X.shape)
    D -= X * np.einsum("ij,ij->j", X, D)
    return D


# --------------------------------------------------------------------------
# finite differences along the column-normalization retraction


def retract(X, D, t):
    Y = X + t * D
    return Y / np.linalg.norm(Y, axis=0)


def fd_directional(value, X, D, h=1e-6):
    """Central difference of t -> value(retract(X, D, t)) at t = 0.

    Equals <riemannian_grad, D> for tangent D; the normalization
    retraction agrees with geodesics to first order.
    """
    return (value(retract(X, D, h)) - value(retract(X, D, -h))) / (2.0 * h)


def fd_second(value, X, D, h=1e-4):
    """Second central difference along the same curve.

    The normalization retraction is second order on the sphere, so this
    converges to the Riemannian Hessian quadratic form <D, Hess[D]>.
    """
    return (value(retract(X, D, h)) - 2.0 * value(X)
            + value(retract(X, D, -h))) / (h * h)


def fd_euclidean_grad(value, X, h=1e-6):
    """Plain central-difference gradient in flat coordinates."""
    G = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        G[idx] = (value(Xp) - value(Xm)) / (2.0 * h)
    return G


# --------------------------------------------------------------------------
# exhaustive QP solve over the shifted tangent cone

def dense_operator(apply_fn, n, k):
    """Materialize a linear map on R^{n x k} as an (nk, nk) matrix."""
    M = np.zeros((n * k, n * k))
    for j in range(n * k):
        E = np.zeros(n * k)
        E[j] = 1.0
        M[:, j] = np.asarray(apply_fn(E.reshape(n, k))).ravel()
    return M


def qp_enumeration_oracle(X, g, hess_apply):
    """Global minimum of <g, D> + (1/2)<D, hess[D]> over
    {D : x_j^T d_j = 0, X + D >= 0}, by enumerating active sets.

    Works in Z = X + D. For every subset of entries clamped to zero,
    solves the equality-constrained QP on the remaining coordinates and
    keeps primal-feasible candidates; for a positive-definite Hessian
    the best of those is the global solution. Exponential in n*k, so
    callers keep n <= 4 and k small.
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    g = np.asarray(g, dtype=float).ravel()
    M = dense_operator(hess_apply, n, k)
    x = X.ravel()

    # column-sum constraint rows: sum_i X[i,j] * Z[i,j] = 1
    E = np.zeros((k, n * k))
    for j in range(k):
        for i in range(n):
            E[j, i * k + j] = X[i, j]

    best = None
    idx_all = np.arange(n * k)
    for r in range(n * k + 1):
        for A in itertools.combinations(range(n * k), r):
            free = np.setdiff1d(idx_all, A)
            if free.size == 0:
                continue
            Ef = E[:, free]
            if np.linalg.matrix_rank(Ef) < k:
                continue  # a column lost its whole support
            Mf = M[np.ix_(free, free)]
            nf = free.size
            KKT = np.zeros((nf + k, nf + k))
            KKT[:nf, :nf] = Mf
            KKT[:nf, nf:] = Ef.T
            KKT[nf:, :nf] = Ef
            rhs = np.concatenate([(M @ x - g)[free], np.ones(k)])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            zf = sol[:nf]
            if zf.min() < -1e-10:
                continue
            z = np.zeros(n * k)
            z[free] = np.maximum(zf, 0.0)
            d = z - x
            val = g @ d + 0.5 * d @ (M @ d)
            if best is None or val < best[0] - 1e-14:
                best = (val, d.reshape(n, k))
    if best is None:
        raise RuntimeError("enumeration found no feasible candidate")
    return best[1], best[0]


def slice_projection_oracle(x, c):
    """Projection of c onto {z : x^T z = 1, z >= 0} via the QP oracle."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(-1, 1)
    D, _ = qp_enumeration_oracle(x, x - c, lambda W: W)
    return (x + D).ravel()


def slice_projection_scan(X, C):
    """Columnwise projection onto {z : x_j^T z = 1, z >= 0}, one column at
    a time, by a Python scan over the descending breakpoints c_i/x_i.

    The per-column loop the batched penorth.manifold.project_delta_cols
    replaced. Its arithmetic is the same entry for entry, so the two must
    agree bit for bit; it assumes valid anchors (nonnegative, each with a
    positive entry).
    """
    X = np.asarray(X, dtype=float)
    C = np.asarray(C, dtype=float)
    out = np.empty_like(C)
    for j in range(X.shape[1]):
        x, c = X[:, j], C[:, j]
        supp = x > 0
        z = np.maximum(c, 0.0)  # entries off the support decouple
        xs, cs = x[supp], c[supp]
        order = np.argsort(-(cs / xs), kind="stable")
        xo, co = xs[order], cs[order]
        bo = co / xo
        lam = (np.cumsum(xo * co) - 1.0) / np.cumsum(xo * xo)
        for m in range(len(bo)):
            if m == len(bo) - 1 or lam[m] >= bo[m + 1]:
                break
        z[supp] = np.maximum(cs - lam[m] * xs, 0.0)
        out[:, j] = z
    return out


def penalized_hess_apply(f_hess, V, params, X, D):
    """Euclidean Hessian of f + sigma * (||X V||_F^q - 1 + eps)^p applied
    to D, everything recomputed from X on the call.

    The body penorth.penalty.PenalizedObjective.hess_apply had before its
    point-dependent part moved into hess_at; f_hess(D) is f's Hessian at X
    applied to D. Its arithmetic is the same operation for operation, so
    the two must agree bit for bit. Returns None where the curvature is
    undefined (p < 1 at zero residual).
    """
    p, q, eps, sigma = params.p, params.q, params.eps, params.sigma
    vvt = V @ V.T
    s = float(np.linalg.norm(X @ V))
    base = max(s ** q - 1.0 + eps, 0.0)
    if p == 1.0:
        fac = 1.0
    elif base > 0:
        fac = base ** (p - 1.0)
    else:
        fac = np.inf if p < 1 else 0.0
    c = p * q * fac * s ** (q - 2.0)
    tail = 0.0
    if p != 1.0:
        if base > 0:
            tail += (p - 1.0) * q * s ** (q - 2.0) / base
        elif p < 1:
            return None
    if q != 2.0:
        tail += (q - 2.0) / (s * s)
    cps = c * tail
    Xv = X @ vvt
    return f_hess(D) + sigma * (
        c * (D @ vvt) + cps * float(np.tensordot(Xv, D)) * Xv)


def opnmf_hess_apply(A, X, D):
    """Euclidean Hessian of ||A - X X^T A||_F^2 at X applied to D, every
    product formed on the call: the body
    penorth.problems.OpnmfObjective.hess_apply had before hess_at."""
    WX = A @ (A.T @ X)
    WD = A @ (A.T @ D)
    XtX = X.T @ X
    cross = D.T @ X
    return 2.0 * (-2.0 * WD + WD @ XtX + WX @ (cross + cross.T)
                  + D @ (X.T @ WX) + X @ (D.T @ WX + X.T @ WD))


def oblique_projection_one_pass(C):
    """Columnwise projection onto the nonnegative unit sphere, column by
    column: the formula penorth.manifold._project_ob_plus_raw computes.

    y = max(C, 0) laid out like C and ss = its einsum column sums of
    squares. A column with 2**-900 <= ss_j <= 2**900 is y_j / sqrt(ss_j);
    any other column with a positive peak is scaled by the peak and
    divided by the root of the pairwise sum of its scaled squares; the
    rest become the coordinate vector at the largest entry of C.
    """
    C = np.asarray(C, dtype=float)
    y = np.maximum(C, 0.0)
    ss = np.einsum("ij,ij->j", y, y)
    out = np.empty_like(y)
    for j in range(C.shape[1]):
        if 2.0 ** -900 <= ss[j] <= 2.0 ** 900:
            out[:, j] = y[:, j] / np.sqrt(ss[j])
        elif y[:, j].max() > 0:
            scaled = y[:, j] / y[:, j].max()
            out[:, j] = scaled / np.sqrt(np.sum(scaled * scaled))
        else:
            out[:, j] = 0.0
            out[int(np.argmax(C[:, j])), j] = 1.0
    return out


def oblique_projection_gather(C):
    """Columnwise projection onto the nonnegative unit sphere by gathering
    the live columns (positive part with a positive peak) into a copy.

    The body penorth.manifold._project_ob_plus_raw had before it became an
    in-place pass, and its bits until the one-pass formula
    (oblique_projection_one_pass) replaced them. Live columns are
    peak-scaled and divided by np.linalg.norm of the gathered copy; every
    other column becomes the coordinate vector at its largest entry.
    """
    C = np.asarray(C, dtype=float)
    pos = np.maximum(C, 0.0)
    peak = pos.max(axis=0)
    out = np.empty_like(pos)
    ok = peak > 0
    if ok.any():
        scaled = pos[:, ok] / peak[ok]
        out[:, ok] = scaled / np.linalg.norm(scaled, axis=0)
    for j in np.nonzero(~ok)[0]:
        e = np.zeros(C.shape[0])
        e[int(np.argmax(C[:, j]))] = 1.0
        out[:, j] = e
    return out


# --------------------------------------------------------------------------
# exhaustive linear maximization over the feasible set (small n, k)


def support_patterns(n, k):
    """Assignments of each row to one column or to none, every column
    nonempty. Orthogonal nonnegative columns force disjoint supports, so
    these patterns cover the entire feasible set."""
    for assign in itertools.product(range(k + 1), repeat=n):
        used = set(a for a in assign if a < k)
        if len(used) == k:
            yield assign


def best_on_pattern(C, assign, k):
    """max <C, X> over unit nonnegative columns with the given disjoint
    supports, and the maximizing X."""
    n = len(assign)
    X = np.zeros((n, k))
    total = 0.0
    for j in range(k):
        rows = [i for i in range(n) if assign[i] == j]
        cj = np.asarray([C[i, j] for i in rows])
        pos = np.maximum(cj, 0.0)
        if pos.max() > 0:
            xj = pos / np.linalg.norm(pos)
            total += float(np.linalg.norm(pos))
        else:
            xj = np.zeros(len(rows))
            xj[int(np.argmax(cj))] = 1.0
            total += float(cj.max())
        for t, i in enumerate(rows):
            X[i, j] = xj[t]
    return total, X


def linear_max_enumeration(C, k):
    """Global max of <C, X> over the feasible set by support enumeration.

    Returns every pattern's (value, maximizer) sorted by value, best
    first. Distinct patterns can share a maximizer (rows carrying zero
    weight may sit in any support), so uniqueness means all top-value
    entries agree on X, not that the top value appears once.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    cands = [best_on_pattern(C, assign, k)
             for assign in support_patterns(n, k)]
    cands.sort(key=lambda t: -t[0])
    return cands


# --------------------------------------------------------------------------
# clipped normal-equations reference for the quadratic refit


def normal_equations_Y(A, X):
    W, *_ = np.linalg.lstsq(np.asarray(X, dtype=float),
                            np.asarray(A, dtype=float), rcond=None)
    return np.maximum(W.T, 0.0)


# --------------------------------------------------------------------------
# projected gradient with the previous iterate and gradient held


def gradient_projection_reference(h, X0, tol, max_iter, fixed_alpha=None,
                                  line_search=True):
    """penorth.subsolvers.gradient_projection_solve as it was before it
    stopped holding the previous iterate and gradient.

    Each step keeps X_prev and G_prev alive until the next BB step forms
    S = X - X_prev and Z = G - G_prev from them, and the line search forms
    its own difference Xn - X. The package's primitives (the projected
    step, norms, the Riemannian gradient) are called as they are; only
    the loop is the reference, and the solver must reproduce it bit for
    bit.
    """
    from collections import deque

    from penorth.manifold import inner, norm, projected_step, riemannian_grad
    from penorth.subsolvers import (ARMIJO, BACKTRACK, BB_CAP, BB_FLOOR,
                                    MAX_BACKTRACKS, WINDOW, InnerReport)
    from penorth.types import make_oblique

    X = X0.data  # iterates are new arrays, never written in place
    fX = float(h.value(X))
    G = np.asarray(h.grad(X), dtype=float)
    hist = deque([fX], maxlen=WINDOW)
    best_X, best_f = X, fX
    flags = []
    Xp = Gp = None
    step = np.inf
    converged = False
    it = 0
    alpha_cap = None if line_search else 10.0 * X0.k
    while it < max_iter:
        it += 1
        if fixed_alpha is not None:
            alpha = fixed_alpha
        else:
            if Xp is None:
                alpha = 1.0 / (norm(G) + 1e-16) if line_search else 1.0
            else:
                S = X - Xp
                Z = G - Gp
                den = abs(inner(S, Z))
                alpha = inner(S, S) / den if den > 0 else BB_CAP
                del S, Z  # not held through the line search
            alpha = min(max(alpha, BB_FLOOR), BB_CAP)
            if alpha_cap is not None:
                alpha = min(alpha, alpha_cap)
        if line_search and fixed_alpha is None:
            fmax = max(hist)
            ok = False
            for _ in range(MAX_BACKTRACKS + 1):
                Xn = projected_step(X, alpha, G)
                diff = Xn - X
                fn = float(h.value(Xn))
                if fn <= fmax - ARMIJO * inner(diff, diff):
                    ok = True
                    break
                alpha *= BACKTRACK
            if not ok:
                flags.append("LineSearchFailure")
                break
        else:
            Xn = projected_step(X, alpha, G)
            fn = float(h.value(Xn))
        step = norm(Xn - X)
        Xp, Gp = X, G
        X, fX = Xn, fn
        G = np.asarray(h.grad(X), dtype=float)
        hist.append(fX)
        if fX < best_f:
            best_X, best_f = X, fX
        if step <= tol:
            converged = True
            break
    if fX > best_f:
        X, fX = best_X, best_f
        G = np.asarray(h.grad(X), dtype=float)
    kkt = norm(np.minimum(X, riemannian_grad(X, G)))
    rep = InnerReport(iterations=it, final_value=fX, step_norm=step,
                      kkt_residual=kkt, converged=converged, flags=flags)
    return make_oblique(X, copy=False), rep


# --------------------------------------------------------------------------
# K-indicators by its own alternating loop


def kindicators_reference(U, sigma0=10.0, gamma2=10.0, eta=0.5, tol_feas=0.1,
                          eps_grad0=1e-3, eps_grad_min=1e-7, t_max=60,
                          max_inner=500):
    """K-indicators by alternating exactly-feasible updates of (X, Y).

    The loop penorth.problems.kindicators_solve ran before K-indicators
    became an objective of the exact-penalty driver. Y is the orthogonal
    Procrustes factor of U^T X; X takes a projected-gradient step on the
    rescaled linear model with a Barzilai-Borwein step capped at 10k and
    no line search. Each outer iteration starts from the rounded
    projection of U when its model value is lower. The package's
    primitives (projections, Procrustes factor, rounding, refinement) are
    called as they are; only the loop is the reference, and the driver
    must reproduce it bit for bit.
    """
    from penorth import rounding
    from penorth.driver import postprocess
    from penorth.manifold import (inner, norm, project_oblique_plus,
                                  project_orthogonal_group, projected_step)
    from penorth.penalty import kkt_residual_subproblem
    from penorth.problems import ScaledLinearPenalty, TargetDistanceObjective
    from penorth.types import PenaltyParams, make_context

    U = np.asarray(U, dtype=float)
    n, k = U.shape
    ctx = make_context(n, k)

    def model(Y, sigma):
        return ScaledLinearPenalty(U @ Y, ctx, sigma)

    X = project_oblique_plus(U).data
    Xf = rounding.round(X)
    Yf = project_orthogonal_group(U.T @ Xf)
    sigma = sigma0
    eg = eps_grad0
    total_inner = 0
    term = "max-outer"
    history = []
    alpha_cap = 10.0 * k
    zeta2 = float(np.linalg.norm(X @ ctx.V) ** 2) - 1.0
    for t in range(t_max):
        Y = project_orthogonal_group(U.T @ X)
        anchored = False
        if model(Y, sigma).value(X) > model(Yf, sigma).value(Xf):
            X, Y = Xf.copy(), Yf
            anchored = True
        Xp = Gp = None
        it = 0
        while it < max_inner:
            it += 1
            Y = project_orthogonal_group(U.T @ X)
            G = model(Y, sigma).grad(X)
            if Xp is None:
                alpha = 1.0
            else:
                S = X - Xp
                Z = G - Gp
                den = abs(inner(S, Z))
                alpha = inner(S, S) / den if den > 0 else alpha_cap
            alpha = min(max(alpha, 1e-10), alpha_cap)
            Xn = projected_step(X, alpha, G)
            step = norm(Xn - X)
            Xp, Gp = X, G
            X = Xn
            if step <= eg:
                break
        total_inner += it
        zeta2 = norm(X @ ctx.V) ** 2 - 1.0
        history.append({"sigma": sigma, "inner_iterations": it,
                        "zeta2": zeta2, "anchored": anchored})
        if zeta2 <= tol_feas:
            term = "feasibility-tol"
            break
        sigma *= gamma2
        eg = max(eta * eg, eps_grad_min)

    Y = project_orthogonal_group(U.T @ X)
    # two-block stationarity of the unscaled penalty at the pre-rounding pair
    res_x = kkt_residual_subproblem(
        X, ctx, PenaltyParams(sigma=sigma, p=1.0, q=2.0, eps=0.0),
        TargetDistanceObjective(U @ Y).grad(X))
    GY = 2.0 * (Y - U.T @ X)
    res_y = float(np.linalg.norm(Y - project_orthogonal_group(Y - GY)))
    XR = rounding.round(X)
    Xfinal = postprocess(XR, TargetDistanceObjective(U @ Y))
    return {"final": Xfinal,
            "objective": float(np.linalg.norm(U @ Y - Xfinal) ** 2),
            "zeta": zeta2, "kkt_residual": max(res_x, res_y),
            "outer_iterations": len(history),
            "inner_iterations": total_inner, "termination": term,
            "history": history, "labels": np.argmax(XR, axis=1),
            "Y": Y, "X_preround": X}
