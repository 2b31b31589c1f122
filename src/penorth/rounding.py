"""Rounding onto the orthogonal nonnegative feasible set, with error bound.

The rounding keeps, in every row, only the largest entry (smallest column
index on ties), then renormalizes the surviving columns. The resulting
supports are pairwise disjoint, so the point is exactly feasible. If a
column dies in the process the degenerate reset I_{n,k} is returned. The
result is a read-only ndarray.

The distance moved is controlled by the orthogonality defect:
||X^R - X||_F <= rho_q * sqrt(zeta_q(X)) with rho_q computable from
(k, q) and the smallest entry of V V^T.
"""
from __future__ import annotations

import numpy as np

from .errors import BadShape
from .types import PenaltyContext, _as_float_matrix


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


def round(X) -> np.ndarray:  # noqa: A001 - deliberate, mirrors numpy's naming
    """Round a (near-)oblique point onto the feasible set.

    Per row, keep only the entry in the column argmax (smallest index on
    ties), then normalize each column by the norm of its survivors. When a
    column loses all mass, or the result fails feasibility (possible only
    for inputs off the nonnegative manifold), return the reset I_{n,k}.
    Returns a new read-only (n, k) array.
    """
    Xd = _as_float_matrix(X, tall=True)
    n, k = Xd.shape

    jstar = np.argmax(Xd, axis=1)
    masked = np.zeros_like(Xd)
    rows = np.arange(n)
    masked[rows, jstar] = Xd[rows, jstar]
    norms = np.linalg.norm(masked, axis=0)
    if (norms == 0).any():
        out = np.eye(n, k)
    else:
        out = masked / norms
        if feasibility_violation(out) > 1e-10:
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
