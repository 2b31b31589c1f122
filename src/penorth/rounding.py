"""Rounding onto the orthogonal nonnegative feasible set, with error bound.

The rounding keeps, in every row, only the largest entry (smallest column
index on ties), then renormalizes the surviving columns. The resulting
supports are pairwise disjoint, so the point is exactly feasible. If a
column dies in the process the degenerate reset I_{n,k} is returned. The
result is a read-only ndarray, built in one n x k array. Its feasibility
is checked only where rounding error alone cannot keep it within 1e-10:
a kept entry is negative, a column's sum of squares underflows or
overflows, or n + 2k exceeds 112,589 (round() gives the bound).

The distance moved is controlled by the orthogonality defect:
||X^R - X||_F <= rho_q * sqrt(zeta_q(X)) with rho_q computable from
(k, q) and the smallest entry of V V^T.
"""
from __future__ import annotations

import numpy as np

from .errors import BadShape
from .types import PenaltyContext, _as_float_matrix

# largest feasibility_violation a rounded point may have before round()
# resets it to I_{n,k}
_ROUND_TOL = 1e-10
# the column-major row argmax compares against int8 weights k..1
_ROW_ARGMAX_K_MAX = np.iinfo(np.int8).max
# fewest rows at which that path beats np.argmax (_row_argmax)
_ROW_ARGMAX_N_MIN = 512


def feasibility_violation(X) -> float:
    """||X^T X - I||_F + ||min(X, 0)||_F; zero exactly on the feasible set.

    NaN when X has a NaN entry. The second term is 0 without forming
    min(X, 0) when no entry is negative.
    """
    Xd = np.asarray(X, dtype=float)
    if Xd.ndim != 2:
        raise BadShape("feasibility_violation needs a matrix")
    k = Xd.shape[1]
    viol = float(np.linalg.norm(Xd.T @ Xd - np.eye(k)))
    if Xd.size and Xd.min() >= 0:  # False on a NaN
        return viol
    return viol + float(np.linalg.norm(np.minimum(Xd, 0.0)))


def _row_argmax(X: np.ndarray):
    """(idx, row_max): np.argmax(X, axis=1) and each row's entry there.

    idx is np.argmax's (intp, the smallest column index on ties), and
    row_max equals X.max(axis=1) entry for entry; a row whose largest
    entry is a zero keeps the sign of the zero at idx, where X.max may
    return the other one. For a column-major X with n >= 512 rows and
    k <= 127 columns, it takes mx = X.max(axis=1), which numpy reduces
    column by column, and then the first column that hits it, as
    k - max((X == mx) * w, axis=1) with int8 weights w = k, ..., 1, the
    product formed in place of the comparison's n x k bytes. It
    calls np.argmax everywhere else: np.argmax scans row by row, which
    costs the same in either layout, while the comparison is a
    column-by-column pass that is slower than that scan on a row-major X.

    Measured per call (one thread, 2-core x86-64, fastest of 11 rounds),
    np.argmax plus the gather of row_max against the column-major path,
    in microseconds, for column-major n x k:

        100 x 3: 5/11     400 x 2: 10/12    800 x 2: 17/13
        400 x 20: 18/19   512 x 20: 25/20   800 x 20: 40/25
        600 x 4: 14/14    5000 x 20: 343/75 5000 x 40: 370/155
        800 x 127: 104/84                   5000 x 127: 1157/607

    so the crossover is near n = 400-600 for every k up to 127. A
    row-major 5000 x 20 X took 285 us in np.argmax and 595 us on the
    column-major path, so it keeps np.argmax. For k > 127 the weights
    would not fit int8; int16 weights took 533 us against np.argmax's
    716 us at 2000 x 200, but no benchmark workload has k > 127, so that
    path is not taken.

    For a finite X both paths agree. With a NaN in a row, np.argmax
    names the row's first NaN and the column-major path returns idx = k;
    row_max is NaN either way. round() rejects such an X first, and
    driver._row_labels labels the row -1 in both cases.
    """
    n, k = X.shape
    if (X.flags.f_contiguous and n >= _ROW_ARGMAX_N_MIN
            and k <= _ROW_ARGMAX_K_MAX):
        mx = X.max(axis=1)
        w = np.arange(k, 0, -1, dtype=np.int8)
        hit = np.equal(X, mx[:, None]).view(np.int8)
        np.multiply(hit, w, out=hit)
        idx = np.subtract(k, np.max(hit, axis=1), dtype=np.intp)
        zero = np.flatnonzero(mx == 0)
        if zero.size:
            mx[zero] = X[zero, idx[zero]]
        return idx, mx
    idx = np.argmax(X, axis=1)
    return idx, X[np.arange(n), idx]


def round(X) -> np.ndarray:  # noqa: A001 - deliberate, mirrors numpy's naming
    """Round a (near-)oblique point onto the feasible set.

    Per row, keep only the entry in the column argmax (smallest index on
    ties), then normalize each column by the norm of its survivors. When a
    column loses all mass, or the result fails feasibility (possible only
    for inputs off the nonnegative manifold), return the reset I_{n,k}.
    Returns a new read-only (n, k) array, laid out as X unless reset.

    The point is built in one array: the kept entries' squares, whose
    column sums give the norms (the same products and the same reduction
    as np.linalg.norm(masked, axis=0)), then the kept entries each divided
    by its column's norm, as masked / norms divides them. Its
    feasibility_violation, a k x k product, is formed only where it can
    exceed _ROUND_TOL. The supports are disjoint, so every off-diagonal
    entry of out^T out is an exact 0. With unit roundoff u = 2^-53 and
    m_j rows kept in column j, a column whose kept entries are all >= 0
    and whose computed sum of squares s_j is finite and at least the
    smallest normal double has a computed diagonal entry within
    4 (m_j + 2) u of 1, in any summation order: the squares, their sum,
    the root, the division and the product's sum each round, and a square
    that underflows errs by at most u times the smallest normal, so by at
    most u s_j. So the violation is at most 4 u ||m + 2||_2 <=
    4 u (n + 2 k), and the check is skipped when twice that is at most
    _ROUND_TOL (n + 2 k <= 112,589) and no column falls outside those
    conditions.
    """
    Xd = _as_float_matrix(X, tall=True)
    n, k = Xd.shape

    idx, kept = _row_argmax(Xd)
    rows = np.arange(n)
    out = np.zeros_like(Xd)
    out[rows, idx] = kept * kept
    sq = np.add.reduce(out, axis=0)
    if not sq.all():
        out = np.eye(n, k)
    else:
        bounded = (kept.min() >= 0 and sq.min() >= np.finfo(float).tiny
                 and sq.max() < np.inf
                 and 8 * 2.0**-53 * (n + 2 * k) <= _ROUND_TOL)
        kept /= np.sqrt(sq)[idx]
        out[rows, idx] = kept
        if not bounded and feasibility_violation(out) > _ROUND_TOL:
            out = np.eye(n, k)
    out.setflags(write=False)
    return out


def rho_tilde(k: int, q: float) -> float:
    """Defect-comparison constant: zeta_2 <= rho_tilde * zeta_q on the manifold."""
    if k < 1:
        raise BadShape(f"k must be positive, got {k}")
    if not (q > 0):
        raise BadShape(f"q must be positive, got {q!r}")
    if q >= 2:
        return 1.0
    rk = np.sqrt(k)
    if q > 1:
        return (rk + 1.0) / q
    return 2.0 * rk * (rk + 1.0) / (q * (q + 1.0))


def rho_q(ctx: PenaltyContext, q: float) -> float:
    """Rounding error constant: ||X^R - X||_F <= rho_q(ctx, q) * sqrt(zeta_q(X))."""
    return float(np.sqrt(2.0 * ctx.k * rho_tilde(ctx.k, q) / ctx.omega_min))
