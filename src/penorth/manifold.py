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
from .types import _as_float_matrix, make_oblique

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


def _order(*arrays) -> str:
    """The memory order for an n x k array made from these operands: "F"
    when every one is column-major (|strides[0]| < |strides[1]|, as a
    matrix penorth.io reads), "C" otherwise.

    This is the one layout rule. inner sums in this order, and
    projected_step, stationarity_residual and the objectives' gradients
    and targets form their arrays in it. The solve entry points take their
    data column-major, so a solve's bits depend neither on the layout of
    its input nor on when numpy reuses a temporary. newton_solve alone
    keeps a row-major copy of its start: its Krylov vectors are row-major
    ravels of n x k arrays.
    """
    cols = all(abs(a.strides[0]) < abs(a.strides[1]) for a in arrays)
    return "F" if cols else "C"


def inner(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius inner product <A, B> = sum_ij A_ij B_ij, the Euclidean
    metric: one BLAS dot over the entries in _order(A, B)."""
    order = _order(A, B)
    return float(A.ravel(order).dot(B.ravel(order)))


# Column sums of squares in this range are formed without overflow, and
# with underflowed squares too small to move them; columns outside it
# (tiny, huge, dead or NaN) take the peak-scaled path.
SS_MIN = 2.0 ** -900
SS_MAX = 2.0 ** 900


def _project_ob_plus_raw(C: np.ndarray) -> np.ndarray:
    """Project a float matrix columnwise onto the nonnegative unit sphere.

    Each column: clip negatives to zero, normalize. A column whose positive
    part vanishes (peak not > 0, NaN included) projects to the coordinate
    vector at the largest entry of its column of C (smallest index on
    ties), which is a valid closest point. No input checks or wrapping,
    for hot loops; C is not written.

    One pass in C's own layout: y = max(C, 0) in a new array laid out like
    C, its column sums of squares ss_j by einsum, and each column with
    SS_MIN <= ss_j <= SS_MAX divided in place by sqrt(ss_j). The other
    columns (squares that underflow or overflow, dead and NaN columns) are
    scaled by their peak first and normalized by the pairwise sum of the
    scaled squares.
    """
    y = np.maximum(C, 0.0)
    ss = np.einsum("ij,ij->j", y, y)
    fallback = np.flatnonzero(~((ss >= SS_MIN) & (ss <= SS_MAX)))
    np.sqrt(ss, out=ss)
    ss[fallback] = 1.0  # exact: these columns are redone below
    y /= ss
    for j in fallback:
        col = y[:, j]
        peak = col.max()
        if peak > 0:
            col /= peak
            col /= np.sqrt(np.add.reduce(col * col))
        else:
            col[:] = 0.0
            col[int(np.argmax(C[:, j]))] = 1.0
    return y


def projected_step(X: np.ndarray, alpha: float, G: np.ndarray) -> np.ndarray:
    """_project_ob_plus_raw(X - alpha * G), with X - alpha * G built in one
    temporary in _order(X, G), which the projection keeps. Two n x k
    arrays are live at the peak: the temporary and the projection's result.
    """
    T = np.multiply(alpha, G, order=_order(X, G))
    np.subtract(X, T, out=T)
    return _project_ob_plus_raw(T)


def project_oblique_plus(C) -> np.ndarray:
    """Project columnwise onto the nonnegative unit sphere (see
    _project_ob_plus_raw); the result is checked and read-only."""
    # make_oblique's shape rule, checked before projecting
    C = _as_float_matrix(C, tall=True)
    return make_oblique(_project_ob_plus_raw(C), copy=False)


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
    Xd = np.asarray(X, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.shape != Xd.shape:
        raise BadShape(f"gradient shape {G.shape} != point shape {Xd.shape}")
    radial = np.einsum("ij,ij->j", Xd, G)
    return G - Xd * radial


def stationarity_residual(X: np.ndarray, G: np.ndarray) -> float:
    """norm(np.minimum(X, riemannian_grad(X, G))), formed in one buffer
    in _order(X, G)."""
    R = np.multiply(X, np.einsum("ij,ij->j", X, G), order=_order(X, G))
    np.subtract(G, R, out=R)
    np.minimum(X, R, out=R)
    return norm(R)


def riemannian_hess_apply(X, G, HD, D) -> np.ndarray:
    """Riemannian Hessian-vector product from Euclidean derivatives.

    For tangent D: Hess[D] = HD - D * Diag(X^T G), with HD the Euclidean
    Hessian applied to D and G the Euclidean gradient at X.

    Raises NotTangent when D is not tangent at X (tolerance 1e-8).
    """
    Xd = np.asarray(X, dtype=float)
    Dd = np.asarray(D, dtype=float)
    if Dd.shape != Xd.shape:
        raise BadShape(f"direction shape {Dd.shape} != point shape {Xd.shape}")
    err = np.abs(np.einsum("ij,ij->j", Xd, Dd)).max()
    if err > TANGENT_CHECK_TOL:
        raise NotTangent(f"max |x_j^T d_j| = {err!r} exceeds {TANGENT_CHECK_TOL!r}")
    radial = np.einsum("ij,ij->j", Xd, np.asarray(G, dtype=float))
    return np.asarray(HD, dtype=float) - Dd * radial


def project_tangent_T(X: np.ndarray, D) -> np.ndarray:
    """Project D onto T(X) = {D : x_j^T d_j = 0, x_j + d_j >= 0 columnwise}.

    Uses the translation identity: the projection equals the projection of
    x_j + d_j onto the slice {z : x_j^T z = 1, z >= 0}, minus x_j. Returns
    a read-only array. Raises NotTangent when a column stays off the
    tangent space by more than TANGENT_BUILD_TOL.
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    if D.shape != X.shape:
        raise BadShape(f"direction shape {D.shape} != base shape {X.shape}")
    out = project_delta_cols(X, X + D) - X
    # exact arithmetic gives x^T out_j = x^T z - 1 = 0; the float residue
    # is tiny unless the slice projection cancelled huge entries, so only
    # then remove the radial part, and check what is left of it
    residue = np.einsum("ij,ij->j", X, out)
    bad = np.abs(residue) > TANGENT_BUILD_TOL
    if bad.any():
        out[:, bad] -= X[:, bad] * residue[bad]
        err = np.abs(np.einsum("ij,ij->j", X[:, bad], out[:, bad])).max()
        if err > TANGENT_BUILD_TOL:
            raise NotTangent(f"max |x_j^T d_j| = {err!r} exceeds "
                             f"{TANGENT_BUILD_TOL!r}")
    out.setflags(write=False)
    return out


def project_orthogonal_group(M) -> np.ndarray:
    """Closest orthogonal matrix in Frobenius norm: polar factor U W^T.

    Deterministic tie-breaking: singular values sorted descending (LAPACK
    default) and each left singular vector's largest-magnitude entry made
    positive, with the matching sign flip applied to the right vectors.
    M = 0 returns the identity.
    """
    M = _as_float_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise BadShape(f"matrix must be square, got shape {M.shape}")
    if not M.any():
        return np.eye(M.shape[0])
    U, _, Wt = np.linalg.svd(M)
    pick = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[pick, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    U = U * signs
    Wt = Wt * signs[:, None]
    return U @ Wt
