"""Geometry of the nonnegative oblique manifold.

Columns live on the unit sphere intersected with the nonnegative orthant.
Riemannian quantities below treat the oblique manifold (product of
spheres) as an embedded submanifold with the Euclidean metric; the
nonnegativity constraint is handled by the projections, not the metric.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BadShape, InfeasibleSupport, NegativeEntry, NotTangent
from .types import ObliqueMatrix, make_oblique, oblique_data

# Tangency tolerances: strict when constructing, looser when consuming.
TANGENT_BUILD_TOL = 1e-10
TANGENT_CHECK_TOL = 1e-8


def norm(A: np.ndarray) -> float:
    """Frobenius norm sqrt(<A, A>), the same bits as np.linalg.norm(A).

    numpy's own path for an axis-free 2-norm (ravel in memory order, one
    dot, sqrt), without the generic wrapper's argument handling.
    """
    a = A.ravel("K")
    return float(np.sqrt(a.dot(a)))


def inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij, the Euclidean metric."""
    # one BLAS dot over the row-major entries: the same bits as
    # np.tensordot(A, B), without its reshaping overhead
    return float(A.ravel().dot(B.ravel()))


def make_tangent(X: ObliqueMatrix, D,
                 tol: float = TANGENT_BUILD_TOL) -> np.ndarray:
    """Check that D is tangent at X (|x_j^T d_j| <= tol for every column)
    and return a read-only copy of it.

    Raises BadShape when D and X differ in shape, NotTangent when some
    column is off the tangent space by more than tol.
    """
    D = np.asarray(D, dtype=float)
    if D.shape != X.data.shape:
        raise BadShape(f"direction shape {D.shape} != base shape {X.data.shape}")
    err = np.abs(np.einsum("ij,ij->j", X.data, D)).max()
    if err > tol:
        raise NotTangent(f"max |x_j^T d_j| = {err!r} exceeds {tol!r}")
    D = D.copy()
    D.setflags(write=False)
    return D


def _project_ob_plus_raw(C: np.ndarray, *, _out=None, _pos=None) -> np.ndarray:
    """Project a float matrix columnwise onto the nonnegative unit sphere.

    Each column: clip negatives to zero, normalize. A column whose positive
    part vanishes (peak not > 0, NaN included) projects to the coordinate
    vector at its largest entry (smallest index on ties), which is a valid
    closest point. No input checks or wrapping, for hot loops.

    The work runs on a Fortran-ordered buffer max(C, 0) and on the result
    array, laid out like C. The hot loops pass C-ordered n x k matrices
    with n >> k: there every column pass (peak, scaling, column sums,
    normalization) would run k-long inner loops, and every further
    full-size temporary costs a page-faulted allocation. The result array
    first holds the column squares, viewed Fortran-ordered, so each column
    norm is numpy's pairwise sum over one contiguous column: the same bits
    as np.linalg.norm(., axis=0) on a column-gathered copy, where C-ordered
    squares would be summed row by row and round differently. The final
    division then writes into it in C's layout, which callers' later
    reductions depend on. Dead columns are divided by 1 along with the rest
    and then overwritten; their argmax is read before C may be.

    _out and _pos are projected_step's: its own contiguous temporary C as
    the result array, and a Fortran-ordered buffer of C's shape that it
    allocated first, so that on the heap the scratch lies below the result
    and freeing it leaves a hole the next iterate reuses.
    """
    if _pos is None:
        pos = np.maximum(C, 0.0, order="F")
    else:
        pos = np.maximum(C, 0.0, out=_pos)
    peak = pos.max(axis=0)
    dead = ~(peak > 0)
    resets = [(j, int(np.argmax(C[:, j]))) for j in np.flatnonzero(dead)]
    # peak-scale first: squaring tiny or huge entries directly would
    # underflow or overflow and denormalize the column
    peak[dead] = 1.0
    pos /= peak
    out = np.empty_like(C, dtype=pos.dtype) if _out is None else _out
    # a view: out is contiguous, fresh or projected_step's temporary
    squares = out.ravel("K").reshape(out.shape, order="F")
    np.multiply(pos, pos, out=squares)
    nrm = np.sqrt(np.add.reduce(squares, axis=0))
    del squares
    nrm[dead] = 1.0
    np.divide(pos, nrm, out=out)
    for j, i in resets:
        out[:, j] = 0.0
        out[i, j] = 1.0
    return out


def projected_step(X: np.ndarray, alpha: float, G: np.ndarray) -> np.ndarray:
    """_project_ob_plus_raw(X - alpha * G), with X - alpha * G built in one
    temporary that the projection then overwrites with its result.

    The temporary gets the memory layout numpy gives X - alpha * G:
    Fortran-like only when both X and G are, C order otherwise. The
    projection keeps that layout, and later reductions over the iterate
    ravel in memory order, so another layout would change their bits.
    """
    pos = np.empty(X.shape, order="F")  # first: see _project_ob_plus_raw
    # a row-major X makes numpy's result row-major whatever G's layout
    x_cols = abs(X.strides[0]) < abs(X.strides[1])
    T = np.multiply(alpha, G, order="K" if x_cols else "C")
    np.subtract(X, T, out=T)
    return _project_ob_plus_raw(T, _out=T, _pos=pos)


def project_oblique_plus(C) -> ObliqueMatrix:
    """Project columnwise onto the nonnegative unit sphere (see _project_ob_plus_raw)."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise BadShape("project_oblique_plus needs a matrix")
    if not np.isfinite(C).all():
        raise BadShape("matrix contains non-finite entries")
    return make_oblique(_project_ob_plus_raw(C), copy=False)


def project_delta(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Project c onto the slice {z : x^T z = 1, z >= 0} for nonnegative x.

    The one-column case of project_delta_cols, which documents the method.

    Raises InfeasibleSupport when x has no positive entry (empty slice),
    NegativeEntry when x has a negative one.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.ndim != 1 or x.shape != c.shape:
        raise BadShape(f"need matching vectors, got {x.shape} and {c.shape}")
    return project_delta_cols(x[:, None], c[:, None])[:, 0]


def project_delta_cols(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Columnwise slice projection: z_j solves min ||z - c_j|| over
    x_j^T z = 1, z >= 0, for nonnegative anchors x_j.

    slice_projector(X)(C) after shape checks; see slice_projector for the
    method. Raises NegativeEntry when an anchor has a negative entry,
    InfeasibleSupport when an anchor has no positive entry (empty slice).
    """
    X = np.asarray(X, dtype=float)
    C = np.asarray(C, dtype=float)
    if X.shape != C.shape or X.ndim != 2:
        raise BadShape(f"need matching matrices, got {X.shape} and {C.shape}")
    return slice_projector(X)(C)


def slice_projector(X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The columnwise slice projection onto {z : x_j^T z = 1, z >= 0} for
    the fixed anchors X, as a function of the target C.

    Entries where x_ij = 0 decouple and project to max(c_ij, 0). On the
    support z_ij = max(c_ij - lam_j x_ij, 0), and the multiplier lam_j
    comes from a descending scan over the breakpoints c_ij/x_ij: with the
    support sorted by breakpoint, lam after the first m + 1 entries is
    (sum x c - 1) / (sum x x), and the scan stops at the first m whose lam
    reaches the next breakpoint (or at the last support entry). All
    columns are scanned at once; each column's arithmetic is the same as
    a scan of that column alone.

    The anchors are checked, and everything that depends on them alone is
    formed, once, when the projector is built: a solver that projects many
    targets onto the slices of one point pays for it once. The projector
    takes float arrays of X's shape and does not check them.

    Raises NegativeEntry when an anchor has a negative entry,
    InfeasibleSupport when an anchor has no positive entry (empty slice).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise BadShape(f"slice anchors must form a matrix, got shape {X.shape}")
    if (X < 0).any():
        raise NegativeEntry("slice anchor has a negative entry")
    supp = X > 0
    has_supp = supp.any(axis=0)
    if not has_supp.all():
        raise InfeasibleSupport(
            f"anchor column {int(np.argmin(has_supp))} has no positive entry")
    n, k = X.shape
    cols = np.arange(k)
    # the sort key is the negated breakpoint -(c/x), computed as c/(-x):
    # rounding is symmetric in sign, so the bits are the same; the NaN
    # marks entries off the support
    neg_x = np.where(supp, -X, np.nan)
    xx = X * X

    def project(C: np.ndarray) -> np.ndarray:
        # stable sort by descending breakpoint; the NaN keys off the support
        # sort last, so each column starts with its support in the order a
        # scan of that column alone would visit it
        key = C / neg_x
        # flat indices of the sorted entries into the row-major order take
        # gathers in
        flat = key.argsort(axis=0, kind="stable")
        flat *= k
        flat += cols
        xo = X.take(flat)
        lam = (xo * C.take(flat)).cumsum(axis=0)
        lam -= 1.0
        lam /= xx.take(flat).cumsum(axis=0)
        # no comparison with a NaN key holds, and past the support both sums
        # add exact zeros (finite targets), so a column that does not stop on
        # its support keeps its last support lam down to the last row, which
        # always stops
        stop = np.empty((n, k), dtype=bool)
        stop[-1] = True
        np.greater_equal(lam[:-1], -key.take(flat[1:]), out=stop[:-1])
        lam_star = lam.take(stop.argmax(axis=0) * k + cols)
        return np.where(supp, np.maximum(C - lam_star * X, 0.0),
                        np.maximum(C, 0.0))

    return project


def riemannian_grad(X, G) -> np.ndarray:
    """Tangent-space projection of a Euclidean gradient G at X.

    grad = G - X * Diag(X^T G), columnwise removal of the radial component.
    """
    Xd = oblique_data(X)
    G = np.asarray(G, dtype=float)
    if G.shape != Xd.shape:
        raise BadShape(f"gradient shape {G.shape} != point shape {Xd.shape}")
    radial = np.einsum("ij,ij->j", Xd, G)
    return G - Xd * radial


def stationarity_residual(X: np.ndarray, G: np.ndarray) -> float:
    """norm(np.minimum(X, riemannian_grad(X, G))), formed in one buffer.

    The buffer gets the memory layout numpy gives that expression:
    Fortran order only when both X and G are column-major, C order
    otherwise. norm sums in memory order, so another layout would change
    its bits.
    """
    cols = (abs(X.strides[0]) < abs(X.strides[1])
            and abs(G.strides[0]) < abs(G.strides[1]))
    R = np.multiply(X, np.einsum("ij,ij->j", X, G), order="F" if cols else "C")
    np.subtract(G, R, out=R)
    np.minimum(X, R, out=R)
    return norm(R)


def riemannian_hess_apply(X, G, HD, D) -> np.ndarray:
    """Riemannian Hessian-vector product from Euclidean derivatives.

    For tangent D: Hess[D] = HD - D * Diag(X^T G), with HD the Euclidean
    Hessian applied to D and G the Euclidean gradient at X.

    Raises NotTangent when D is not tangent at X (tolerance 1e-8).
    """
    Xd = oblique_data(X)
    Dd = np.asarray(D, dtype=float)
    if Dd.shape != Xd.shape:
        raise BadShape(f"direction shape {Dd.shape} != point shape {Xd.shape}")
    err = np.abs(np.einsum("ij,ij->j", Xd, Dd)).max()
    if err > TANGENT_CHECK_TOL:
        raise NotTangent(f"max |x_j^T d_j| = {err!r} exceeds {TANGENT_CHECK_TOL!r}")
    radial = np.einsum("ij,ij->j", Xd, np.asarray(G, dtype=float))
    return np.asarray(HD, dtype=float) - Dd * radial


def project_tangent_T(X: ObliqueMatrix, D) -> np.ndarray:
    """Project D onto T(X) = {D : x_j^T d_j = 0, x_j + d_j >= 0 columnwise}.

    Uses the translation identity: the projection equals the projection of
    x_j + d_j onto the slice {z : x_j^T z = 1, z >= 0}, minus x_j. Returns
    a read-only array that make_tangent has checked.
    """
    D = np.asarray(D, dtype=float)
    if D.shape != X.data.shape:
        raise BadShape(f"direction shape {D.shape} != base shape {X.data.shape}")
    out = project_delta_cols(X.data, X.data + D) - X.data
    # exact arithmetic gives x^T out_j = x^T z - 1 = 0; the float residue
    # is tiny unless the slice projection cancelled huge entries, so only
    # then remove the radial part
    residue = np.einsum("ij,ij->j", X.data, out)
    bad = np.abs(residue) > TANGENT_BUILD_TOL
    if bad.any():
        out[:, bad] -= X.data[:, bad] * residue[bad]
    return make_tangent(X, out, tol=TANGENT_BUILD_TOL)


def project_orthogonal_group(M) -> np.ndarray:
    """Closest orthogonal matrix in Frobenius norm: polar factor U W^T.

    Deterministic tie-breaking: singular values sorted descending (LAPACK
    default) and each left singular vector's largest-magnitude entry made
    positive, with the matching sign flip applied to the right vectors.
    M = 0 returns the identity.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadShape("project_orthogonal_group needs a square matrix")
    if not np.isfinite(M).all():
        raise BadShape("matrix contains non-finite entries")
    if not M.any():
        return np.eye(M.shape[0])
    U, _, Wt = np.linalg.svd(M)
    pick = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[pick, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    U = U * signs
    Wt = Wt * signs[:, None]
    return U @ Wt
