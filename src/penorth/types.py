"""Core domain types.

A point on the nonnegative oblique manifold is a plain n-by-k float array
with nonnegative entries and unit Euclidean norm in every column. The
feasible set of the original problem (orthogonal AND nonnegative) is the
subset of these whose columns have pairwise disjoint supports.

make_oblique checks a point and returns it read-only: it refuses anything
that is not already on the manifold (no silent normalization), so the
array you read back is bit-identical to the one you passed in.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable, Optional

import numpy as np

from .errors import BadShape, NegativeEntry, NonUnitColumn, ZeroColumn

# Column norms must match 1 to this absolute tolerance.
COL_NORM_TOL = 1e-12
# Entries with magnitude <= this count as structural zeros.
SUPPORT_ZERO_TOL = 1e-10


def _as_float_matrix(data, name="matrix", *, order=None, tall=False):
    """data as a float array, in memory order `order` (np.asarray's).

    The one input check of every entry point that takes a data matrix:
    BadShape, naming the argument, unless it is 2-d, n >= k >= 1 when
    tall, and finite. Shapes are checked before the entries are scanned.
    """
    arr = np.asarray(data, dtype=float, order=order)
    if arr.ndim != 2:
        raise BadShape(f"{name} must be 2-d, got ndim={arr.ndim}")
    if tall and not arr.shape[0] >= arr.shape[1] >= 1:
        raise BadShape(f"{name} must be n x k with n >= k >= 1, "
                       f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadShape(f"{name} contains non-finite entries")
    return arr


def make_oblique(data, *, copy: bool = True) -> np.ndarray:
    """Check that a matrix is a point on the nonnegative oblique manifold.

    Returns it as a read-only (n, k) float array: a C-ordered copy, or with
    copy=False the array itself (converted to float if need be), frozen.
    Pass copy=False only for an array no one else will write.

    Raises:
        BadShape: not 2-d, n < k, k < 1, or non-finite entries.
        NegativeEntry: any strictly negative entry.
        NonUnitColumn: any column norm off 1 by more than COL_NORM_TOL.
    """
    arr = _as_float_matrix(data, tall=True)
    if (arr < 0).any():
        i, j = np.argwhere(arr < 0)[0]
        raise NegativeEntry(f"entry ({i}, {j}) is negative: {arr[i, j]!r}")
    norms = np.linalg.norm(arr, axis=0)
    bad = np.abs(norms - 1.0) > COL_NORM_TOL
    if bad.any():
        j = int(np.argmax(bad))
        raise NonUnitColumn(f"column {j} has norm {norms[j]!r}")
    if copy:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class PenaltyContext:
    """Fixed data of the orthogonality functional: the coupling matrix V.

    V is k-by-r with unit Frobenius norm and every entry of V V^T strictly
    positive; then ||X V||_F >= 1 on the manifold with equality exactly on
    the orthogonal nonnegative points. The default V = ones(k,1)/sqrt(k)
    gives V V^T = (1/k) * ones.

    Attributes:
        n, k: problem dimensions.
        V: (k, r) coupling matrix, read-only.
        vvt: cached V @ V.T, read-only.
        omega_min: smallest entry of vvt.
    """

    n: int
    k: int
    V: np.ndarray
    vvt: np.ndarray
    omega_min: float


def make_context(n: int, k: int, V=None) -> PenaltyContext:
    """Build a PenaltyContext, defaulting V to ones(k,1)/sqrt(k).

    Raises:
        BadShape: V not (k, r) or ||V||_F != 1 within COL_NORM_TOL.
        ZeroColumn: some entry of V V^T is not strictly positive.
    """
    if k < 1 or n < k:
        raise BadShape(f"need n >= k >= 1, got n={n}, k={k}")
    if V is None:
        V = np.full((k, 1), 1.0 / np.sqrt(k))
    V = _as_float_matrix(V, "V")
    if V.shape[0] != k:
        raise BadShape(f"V must have {k} rows, got {V.shape[0]}")
    fro = np.linalg.norm(V)
    if abs(fro - 1.0) > COL_NORM_TOL:
        raise BadShape(f"V must have unit Frobenius norm, got {fro!r}")
    vvt = V @ V.T
    omega_min = float(vvt.min())
    if omega_min <= 0:
        raise ZeroColumn("V V^T must be entrywise positive")
    V = V.copy()
    V.setflags(write=False)
    vvt.setflags(write=False)
    return PenaltyContext(n=n, k=k, V=V, vvt=vvt, omega_min=omega_min)


@dataclasses.dataclass(frozen=True)
class PenaltyParams:
    """Parameters (sigma, p, q, eps) of the penalty term sigma*(zeta_q + eps)^p.

    Invariants: every field finite, sigma > 0, p > 0, q > 0, eps >= 0, and
    eps == 0 when p >= 1 (the smoothing offset only exists for the
    nonsmooth p < 1 family).
    """

    sigma: float
    p: float = 1.0
    q: float = 2.0
    eps: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if not math.isfinite(val):
                raise BadShape(f"{f.name} must be finite, got {val!r}")
        if self.sigma <= 0:
            raise BadShape(f"sigma must be positive, got {self.sigma!r}")
        if self.p <= 0:
            raise BadShape(f"p must be positive, got {self.p!r}")
        if self.q <= 0:
            raise BadShape(f"q must be positive, got {self.q!r}")
        if self.eps < 0:
            raise BadShape(f"eps must be nonnegative, got {self.eps!r}")
        if self.p >= 1 and self.eps != 0:
            raise BadShape("eps must be 0 when p >= 1")


class Objective:
    """Smooth objective f on n-by-k matrices.

    Subclasses implement value/grad (Euclidean) and, if a second-order
    subsolver is to be used, hess_apply. The optional hess_at(X) returns
    the Hessian at X as an operator D -> hess_apply(X, D); the Newton
    solver builds it once per iterate and applies it many times, so an
    objective may override it to form what depends on X alone only once.
    The refine_* hooks describe the structure the support-restricted
    postprocessing step can exploit:

        refine_kind == "linear":          f decreases with <refine_linear_C(), X>
                                          increasing (f = const - <C, X> on the
                                          feasible set).
        refine_kind == "quadratic-form":  f = const - tr(X^T M X) on the feasible
                                          set, M = F F^T with the (n, r) factor
                                          F = refine_quadratic_factor().
        refine_kind == "generic":         no structure; the rounded point is kept.

    With a nonnegative F the driver can also certify a rounded support
    without forming M (driver module docstring). Its bound reads
    refine_quadratic_spectrum(), which an objective may compute once and
    keep.
    """

    refine_kind: str = "generic"

    def value(self, X: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_apply(self, X: np.ndarray, D: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_at(self, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return lambda D: self.hess_apply(X, D)

    def refine_linear_C(self) -> np.ndarray:
        raise NotImplementedError

    def refine_quadratic_factor(self) -> np.ndarray:
        raise NotImplementedError

    def refine_quadratic_spectrum(self) -> tuple:
        """(d, Q) = eigh of the smaller of F F^T and F^T F, F =
        refine_quadratic_factor(): eigenvalues ascending, eigenvectors in
        Q's columns. The two products share their nonzero eigenvalues."""
        F = np.asarray(self.refine_quadratic_factor(), dtype=float)
        return np.linalg.eigh(F @ F.T if F.shape[0] <= F.shape[1] else F.T @ F)


@dataclasses.dataclass(frozen=True)
class DriverConfig:
    """Outer-loop configuration for the exact-penalty driver.

    Every outer iteration minimizes the penalty model with p = 1, q = 2 and
    no smoothing offset (PenaltyParams(sigma)); the (p, q, eps) family
    lives in PenaltyParams and PenalizedObjective. The inner tolerance
    decays by eta down to driver.EPS_GRAD_MIN. A call given no feasible
    fallback starts from feasible_init's fixed random stream.

    Fields:
        sigma0: initial penalty weight.
        gamma2: penalty growth factor (> 1), used when gamma2_rule is None.
        gamma2_rule: optional callable mapping ||X V||_F^2 of the current
            iterate to a growth factor (> 1); overrides gamma2.
        eta: inner-tolerance decay factor in (0, 1].
        eps_grad0: initial inner stationarity tolerance.
        tol_feas: outer stop on ||X V||_F^2 - 1.
        t_max: maximum outer iterations.
        zeta_switch: subsolver switch threshold; first-order steps while
            ||X V||_F^2 - 1 exceeds it, second-order once at or below.
        force_solver: override the switch with "gp" (BB step, line search),
            "gp-bb" (BB step capped at 10 k, no line search), "gp-fixed" or "newton".
        fixed_alpha: step size for the "gp-fixed" solver.
        max_inner: per-outer-iteration inner iteration cap.
        do_postprocess: run rounding refinement on the final point.
        anchor: feasible-fallback policy. "result" reruns the inner solve
            from the fallback whenever the warm-started run ends worse than
            the fallback, and accepts the rerun; "start" resets the warm
            start before solving whenever the start compares worse. With
            "start" and gamma2_rule unset, a projected-gradient solve also
            stops at the first iterate headed for the next iteration's
            reset (driver module docstring).
    """

    sigma0: float = 1e-2
    gamma2: float = 5.0
    gamma2_rule: Optional[Callable[[float], float]] = None
    eta: float = 0.8
    eps_grad0: float = 1e-3
    tol_feas: float = 1e-8
    t_max: int = 300
    zeta_switch: float = 0.0
    force_solver: Optional[str] = None
    fixed_alpha: float = 0.99
    max_inner: int = 1000
    do_postprocess: bool = True
    anchor: str = "result"

    def __post_init__(self):
        # annotations are strings here (postponed evaluation)
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if f.type == "bool":
                ok, want = isinstance(val, (bool, np.bool_)), "true or false"
            elif f.type == "int":
                ok, want = isinstance(val, numbers.Integral), "an int"
            elif f.type == "float":
                ok = isinstance(val, numbers.Real) and math.isfinite(val)
                want = "a finite number"
            else:
                continue
            if not ok or (isinstance(val, bool) and f.type != "bool"):
                raise BadShape(f"{f.name} must be {want}, got {val!r}")
        if self.gamma2_rule is not None and not callable(self.gamma2_rule):
            raise BadShape(f"gamma2_rule must be callable, got {self.gamma2_rule!r}")
        if self.gamma2 <= 1:
            raise BadShape(f"gamma2 must exceed 1, got {self.gamma2!r}")
        if not (0 < self.eta <= 1):
            raise BadShape(f"eta must lie in (0, 1], got {self.eta!r}")
        if self.sigma0 <= 0 or self.eps_grad0 <= 0 or self.tol_feas <= 0:
            raise BadShape("sigma0, eps_grad0 and tol_feas must be positive")
        if self.t_max < 1 or self.max_inner < 1:
            raise BadShape("t_max and max_inner must be at least 1")
        if self.force_solver not in (None, "gp", "gp-fixed", "gp-bb", "newton"):
            raise BadShape(f"unknown force_solver {self.force_solver!r}")
        if self.anchor not in ("result", "start"):
            raise BadShape(f"unknown anchor policy {self.anchor!r}")


@dataclasses.dataclass
class SolveReport:
    """Outcome of a driver run.

    history holds one dict per outer iteration (sigma, inner iterations,
    residuals, descent check); flags collects non-fatal solver conditions.
    extra carries problem-specific results (gap, resi, metrics ...).
    """

    final: Optional[np.ndarray] = None
    objective: float = np.nan
    zeta: float = np.nan
    kkt_residual: float = np.nan
    feasibility: float = np.nan
    outer_iterations: int = 0
    inner_iterations: int = 0
    seconds: float = 0.0
    termination: str = "unknown"
    history: list = dataclasses.field(default_factory=list)
    flags: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "objective": float(self.objective),
            "zeta": float(self.zeta),
            "kkt_residual": float(self.kkt_residual),
            "feasibility": float(self.feasibility),
            "outer_iterations": int(self.outer_iterations),
            "inner_iterations": int(self.inner_iterations),
            "seconds": float(self.seconds),
            "termination": self.termination,
            "flags": list(self.flags),
        }
        # matrices stay on the report object for programmatic use; the
        # serializable dict carries scalars and small lists only
        d.update({k: v for k, v in self.extra.items()
                  if not isinstance(v, np.ndarray)})
        return d
