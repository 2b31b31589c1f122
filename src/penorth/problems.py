"""Application problems: nearest feasible point, orthogonal NMF, K-indicators.

Each problem ships its smooth objective (Euclidean value/grad/Hessian),
an instance generator with a known ground truth where one exists, the
quality metrics used in the experiments, and a solve_* entry point that
wires the objective into the exact-penalty driver with the problem's
preset.

K-indicators is one more objective: a projected-gradient step on its inner
model -||U^T X||_* / sigma + (1/2) ||X V||_F^2 is one alternating step of
the classical scheme, so the driver runs it like any other.
"""
from __future__ import annotations

import dataclasses
import math
import time
import weakref
from typing import Optional

import numpy as np

from . import rounding
from .driver import (_round_projection, ep4orth_solve, kindicators_preset,
                     onmf_preset, postprocess, projection_preset)
from .errors import (BadLabels, BadShape, DimensionMismatch, NotFeasible,
                     SingularGram, ZeroColumn)
from .manifold import (_order, inner, norm, project_oblique_plus,
                       project_orthogonal_group)
from .penalty import PenalizedObjective
from .rounding import feasibility_violation
from .types import (DriverConfig, Objective, PenaltyContext, SolveReport,
                    _as_float_matrix, make_context)


# ---------------------------------------------------------------------------
# objectives


class LinearObjective(Objective):
    """f(X) = <C, X>."""

    refine_kind = "linear"

    def __init__(self, C):
        self.C = np.asarray(C, dtype=float)

    def value(self, X):
        return inner(self.C, X)

    def grad(self, X):
        return self.C

    def hess_apply(self, X, D):
        return np.zeros_like(np.asarray(D, dtype=float))

    def refine_linear_C(self):
        # f decreases as <(-C), X> increases
        return -self.C


class TargetDistanceObjective(Objective):
    """f(X) = ||X - C||_F^2, the nearest-feasible-point objective."""

    refine_kind = "linear"

    def __init__(self, C):
        self.C = np.asarray(C, dtype=float)

    def value(self, X):
        R = X - self.C
        return inner(R, R)

    def grad(self, X):
        G = np.subtract(X, self.C)
        G *= 2.0
        return G

    def hess_apply(self, X, D):
        return 2.0 * np.asarray(D, dtype=float)

    def refine_linear_C(self):
        # on unit-column X, f = k - 2<C, X> + ||C||^2
        return self.C


class ScaledLinearPenalty(Objective):
    """Inner model -(1/sigma) <C, X> + (1/2) ||X V||_F^2.

    An affine rescaling of the exact penalty for objectives that are linear
    on the manifold; its gradient is 1-Lipschitz, so a fixed projected
    step below 1 descends without a line search.

    The target is kept as given, not copied. X V is kept for the last
    array passed (compared by identity): the loop asks for the value,
    then the gradient, at each iterate, and the gradient
    (X V) V^T - C / sigma is the sum over the r columns v_l of V of the
    rank-one products (X v_l) v_l^T, one product for the default r = 1,
    formed in _order(X). Its constant term C / sigma is formed
    at the first gradient and kept for the next ones, which then take no
    division: a fixed-step solve asks for a gradient at every step (on
    bench table-proj --xi 1.2 --xi 1.5, the sum of each solve's fastest
    of 4 runs was 17 % longer with KindicatorsModel's form, which
    divides in every gradient). KindicatorsModel, whose C moves with
    every iterate, forms the same bits without keeping it.
    """

    def __init__(self, C, ctx: PenaltyContext, sigma: float):
        self.C = np.asarray(C, dtype=float)
        self.ctx = ctx
        self.sigma = float(sigma)
        self._c_sigma = None
        self._X = self._XV = None

    def _xv(self, X):
        if X is not self._X:
            self._X, self._XV = X, X @ self.ctx.V
        return self._XV

    def value(self, X):
        XV = self._xv(X)
        return (-inner(self.C, X) / self.sigma
                + 0.5 * inner(XV, XV))

    def grad(self, X):
        if self._c_sigma is None:
            self._c_sigma = self.C / self.sigma
        XV, V = self._xv(X), self.ctx.V
        G = np.multiply(XV[:, :1], V[:, 0], order=_order(X))
        for j in range(1, V.shape[1]):
            G += XV[:, j:j + 1] * V[:, j]
        G -= self._c_sigma
        return G

    def hess_apply(self, X, D):
        return np.asarray(D, dtype=float) @ self.ctx.vvt


def _sq_rows(A: np.ndarray) -> float:
    """||A||_F^2 summed in row-major order whatever A's layout (one
    row-major copy of a column-major A)."""
    A_rows = np.ascontiguousarray(A)
    return inner(A_rows, A_rows)


class OnmfQuadObjective(Objective):
    """f(X) = ||A - X Y^T||_F^2 for a fixed nonnegative Y (quadratic in X).

    At feasible X (X^T X = I) it is ||A||^2 + ||Y||^2 - 2 <A Y, X>, linear
    in X, so its refinement is the linear one with gain A Y. _a_sq, when
    given, is _sq_rows(A), which solve_onmf forms once for all its outer
    iterations.
    """

    refine_kind = "linear"

    def __init__(self, A, Y, *, _a_sq=None):
        self.A = np.asarray(A, dtype=float)
        self.Y = np.asarray(Y, dtype=float)
        if self.A.shape[1] != self.Y.shape[0]:
            raise DimensionMismatch(
                f"A has {self.A.shape[1]} columns but Y has {self.Y.shape[0]} rows")
        self._yty = self.Y.T @ self.Y
        self._ay = self.A @ self.Y
        self._a_sq = _sq_rows(self.A) if _a_sq is None else _a_sq

    def value(self, X):
        return (self._a_sq - 2.0 * inner(self._ay, X)
                + inner(X @ self._yty, X))

    def grad(self, X):
        return 2.0 * (X @ self._yty - self._ay)

    def hess_apply(self, X, D):
        return 2.0 * (np.asarray(D, dtype=float) @ self._yty)

    def refine_linear_C(self):
        return self._ay


class OpnmfObjective(Objective):
    """Projective factorization objective f(X) = ||A - X X^T A||_F^2.

    Quartic in X. All products keep the n-by-r data matrix on the outside,
    so no n-by-n intermediate is ever formed. The spectrum of A's smaller
    Gram matrix is computed on first use and kept (read-only): the driver's
    bound and solve_onmf's start share it.
    """

    refine_kind = "quadratic-form"

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self._spectrum = None

    def _wx(self, Z):
        return self.A @ (self.A.T @ Z)

    def value(self, X):
        R = self.A - X @ (X.T @ self.A)
        return inner(R, R)

    def grad(self, X):
        WX = self._wx(X)
        return 2.0 * (-2.0 * WX + WX @ (X.T @ X) + X @ (X.T @ WX))

    def hess_at(self, X):
        # the products of X with itself and the data are formed once
        WX = self._wx(X)
        XtX = X.T @ X
        XtWX = X.T @ WX

        def apply(D):
            D = np.asarray(D, dtype=float)
            WD = self._wx(D)
            cross = D.T @ X
            return 2.0 * (-2.0 * WD + WD @ XtX + WX @ (cross + cross.T)
                          + D @ XtWX + X @ (D.T @ WX + X.T @ WD))

        return apply

    def hess_apply(self, X, D):
        return self.hess_at(X)(D)

    def refine_quadratic_factor(self):
        return self.A

    def refine_quadratic_spectrum(self):
        if self._spectrum is None:
            d, Q = super().refine_quadratic_spectrum()
            d.setflags(write=False)
            Q.setflags(write=False)
            self._spectrum = d, Q
        return self._spectrum


# ---------------------------------------------------------------------------
# shared generator pieces


def _check_noise(name: str, level) -> None:
    """A generator's noise level must be finite and nonnegative."""
    if not (np.isfinite(level) and level >= 0):
        raise BadShape(f"{name} must be finite and nonnegative, got {level!r}")


def _rng(seed) -> np.random.Generator:
    """The generators' Philox stream for a nonnegative integer seed."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and seed >= 0):
        raise BadShape(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(np.random.Philox(seed))


def _random_labels(n: int, k: int, rng) -> np.ndarray:
    """n labels drawn uniformly from range(k), redrawn until all k occur."""
    if n < k or k < 1:
        raise BadShape(f"need n >= k >= 1, got n={n}, k={k}")
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size == k:
            return labels


def _random_feasible(n: int, k: int, rng) -> np.ndarray:
    """Random exactly-feasible matrix: rows assigned to columns uniformly
    (resampled until no column is empty), positive magnitudes, unit columns."""
    assign = _random_labels(n, k, rng)
    B = np.zeros((n, k))
    B[np.arange(n), assign] = 1.0 - rng.random(n)  # uniform on (0, 1]
    return B / np.linalg.norm(B, axis=0)


# ---------------------------------------------------------------------------
# nearest feasible point


@dataclasses.dataclass(frozen=True)
class ProjectionInstance:
    """Nearest-point instance C = X_star @ L.T with planted solution X_star.

    hypothesis_ok records whether the sampled L satisfies the strict
    diagonal-dominance condition L_ii L_jj > max(L_ij, L_ji, 0)^2 that
    certifies X_star as the unique projection of C.
    """

    C: np.ndarray
    X_star: np.ndarray
    L: np.ndarray
    xi: float
    seed: int
    hypothesis_ok: bool


def _uniqueness_hypothesis(L: np.ndarray) -> bool:
    k = L.shape[0]
    d = np.diag(L)
    if (d <= 0).any():
        return False
    M = np.maximum(np.maximum(L, L.T), 0.0) ** 2
    prod = np.outer(d, d)
    off = ~np.eye(k, dtype=bool)
    return bool((prod[off] > M[off]).all())


def gen_projection(n: int, k: int, xi: float, seed: int) -> ProjectionInstance:
    """Sample a nearest-point instance with planted solution.

    X_star is a random feasible matrix re-scaled entrywise (magnitudes in
    [1, 2) before normalization); L has diagonal d in [0.5, 3.5) and
    off-diagonal xi * sqrt(d_i d_j) * uniform(0,1). For xi < 1 the
    uniqueness condition holds deterministically, at xi = 1 almost surely.
    """
    _check_noise("xi", xi)
    rng = _rng(seed)
    B = _random_feasible(n, k, rng)
    Xs = (B > 0) * (1.0 + rng.random((n, k)))
    Xs = Xs / np.linalg.norm(Xs, axis=0)
    d = 0.5 + 3.0 * rng.random(k)
    L = xi * np.sqrt(np.outer(d, d)) * rng.random((k, k))
    np.fill_diagonal(L, d)
    # column-major, so solve_projection holds this array, not a copy
    C = np.matmul(Xs, L.T, order="F")
    return ProjectionInstance(C=C, X_star=Xs, L=L, xi=float(xi), seed=seed,
                              hypothesis_ok=_uniqueness_hypothesis(L))


def gap(X, X_star, C) -> float:
    """Relative optimality gap ||X - C|| / ||X_star - C|| - 1 (0 at optimum).

    Raises DimensionMismatch unless X, X_star and C have one shape.
    """
    X = np.asarray(X, dtype=float)
    X_star = np.asarray(X_star, float)
    C = np.asarray(C, float)
    if not X.shape == X_star.shape == C.shape:
        raise DimensionMismatch(f"gap needs one shape, got X {X.shape}, "
                                f"X_star {X_star.shape} and C {C.shape}")
    den = float(np.linalg.norm(X_star - C))
    if den == 0:
        raise ZeroColumn("reference solution coincides with the target")
    return float(np.linalg.norm(X - C)) / den - 1.0


def solve_projection(C, cfg: Optional[DriverConfig] = None,
                     X_star=None) -> SolveReport:
    """Nearest feasible point to C via the exact-penalty driver.

    Uses the projection preset: fixed-step projected gradient on the
    rescaled linear model, start and anchor at round(project(C)). f and
    every outer model share one column-major target: C itself when it is,
    one copy otherwise. With X_star, extra["gap"] is gap(final, X_star,
    C); an X_star of another shape than C raises DimensionMismatch before
    the solve.
    """
    C = _as_float_matrix(C, "C", order="F", tall=True)
    if X_star is not None and np.shape(X_star) != C.shape:
        raise DimensionMismatch(f"X_star shape {np.shape(X_star)} != "
                                f"C shape {C.shape}")
    n, k = C.shape
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else projection_preset()
    f = TargetDistanceObjective(C)
    X_feas = _round_projection(C)  # feasible_init's, C checked above

    def factory(X, params):
        return ScaledLinearPenalty(C, ctx, params.sigma)

    report = ep4orth_solve(f, ctx, cfg, X_feas=X_feas,
                           inner_factory=factory)
    if X_star is not None:
        report.extra["gap"] = gap(report.final, X_star, C)
    return report


# ---------------------------------------------------------------------------
# orthogonal nonnegative matrix factorization


@dataclasses.dataclass(frozen=True)
class OnmfInstance:
    """Synthetic factorization instance A ~ B C with feasible B and noise xi."""

    A: np.ndarray
    k: int
    labels: np.ndarray
    B: np.ndarray
    xi: float
    seed: int


def gen_onmf(n: int, r: int, k: int, xi: float, seed: int) -> OnmfInstance:
    """A = normalize(B @ C) + xi * D / ||D||_F with B feasible, C, D uniform."""
    _check_noise("xi", xi)
    if r < 1:
        raise BadShape(f"need r >= 1, got r={r}")
    rng = _rng(seed)
    B = _random_feasible(n, k, rng)
    labels = np.argmax(B, axis=1)
    C = rng.random((k, r))
    D = rng.random((n, r))
    A = B @ C
    A = A / np.linalg.norm(A)
    if xi > 0:
        A = A + (xi / np.linalg.norm(D)) * D
    return OnmfInstance(A=A, k=k, labels=labels, B=B, xi=float(xi), seed=seed)


def drop_zero_columns(A: np.ndarray) -> np.ndarray:
    """Remove all-zero columns (data loaded from files may have them).

    Rows are kept: each row is a data point whose label and solution row
    must stay aligned with the input. A without a zero column comes back
    as is, not copied.
    """
    A = np.asarray(A, dtype=float)
    keep = (A != 0).any(axis=0)
    if not keep.all():
        A = A[:, keep]
    if A.size == 0:
        raise BadShape("matrix is entirely zero")
    return A


def svd_init(A: np.ndarray, k: int):
    """Start point from the magnitudes of the top-k left singular vectors.

    project_oblique_plus(|U_k|) for A's top-k left singular vectors U_k, in
    descending order, read from the eigendecomposition of A's smaller Gram
    matrix (OpnmfObjective.refine_quadratic_spectrum). Raises BadShape
    unless A is a finite matrix and 1 <= k <= min(A.shape).
    """
    return _spectral_start(OpnmfObjective(_as_float_matrix(A, "A")), k)


def _spectral_start(f: OpnmfObjective, k: int) -> np.ndarray:
    """svd_init from the spectrum f keeps, for a finite matrix A = f.A.

    With A n x r: for n <= r the top-k eigenvectors of A A^T are U_k; for
    n > r, A V_k with V_k those of A^T A has U_k's directions (scaled by
    the singular values, which the projection's normalization removes).
    Where one of the top k eigenvalues of A^T A is zero to rounding, its
    column of A V_k is no direction, and U_k comes from the SVD of A.
    """
    A = f.A
    n, r = A.shape
    if not (1 <= k <= min(n, r)):
        raise BadShape(f"need 1 <= k <= min(A.shape), got k={k}")
    d, Q = f.refine_quadratic_spectrum()
    top = Q[:, ::-1][:, :k]
    if n <= r:
        U = top
    elif d[-k] > np.finfo(float).eps * max(n, r) * d[-1]:
        U = A @ top
    else:
        U = np.linalg.svd(A, full_matrices=False)[0][:, :k]
    return project_oblique_plus(np.abs(U))


def onmf_gauss_newton_Y(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Nonnegative least-squares-style update Y = max(A^T X (X^T X)^{-1}, 0).

    The Gram matrix is regularized by 1e-12 I on the first failure;
    SingularGram is raised if it still cannot be factored.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=float)
    gram = X.T @ X
    rhs = (A.T @ X).T  # k x r
    try:
        Y0 = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        try:
            Y0 = np.linalg.solve(gram + 1e-12 * np.eye(gram.shape[0]), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("Gram matrix singular even after regularization") from exc
    return np.maximum(Y0.T, 0.0)


def resi(A: np.ndarray, X) -> float:
    """Projective residual ||A - X X^T A||_F at a feasible X.

    Raises NotFeasible when X is not feasible to 1e-8.
    """
    A = np.asarray(A, dtype=float)
    Xd = np.asarray(X, dtype=float)
    if not feasibility_violation(Xd) <= 1e-8:
        raise NotFeasible("resi is only meaningful at feasible points")
    return float(np.linalg.norm(A - Xd @ (Xd.T @ A)))


def solve_onmf(A: np.ndarray, k: int, cfg: Optional[DriverConfig] = None,
               variant: str = "gn") -> SolveReport:
    """Orthogonal NMF through the exact-penalty driver.

    variant "gn": each outer iteration refits Y by the clipped normal
    equations and minimizes the resulting quadratic-in-X penalty.
    variant "direct": minimizes the quartic projective objective itself.
    Reported objective and resi refer to the projective residual at the
    final feasible point. cfg defaults to onmf_preset(); hyperspectral
    data take onmf_preset(hyperspectral=True). A is used column-major
    (copied once if it is not).
    """
    if variant not in ("gn", "direct"):
        raise BadShape(f"unknown variant {variant!r}")
    A = _as_float_matrix(A, "A", order="F")
    n = A.shape[0]
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else onmf_preset()
    f_true = OpnmfObjective(A)
    # the start and the driver's bound read one spectrum, which f_true keeps
    X0 = _spectral_start(f_true, k)
    X_feas = rounding.round(X0)

    factory = None
    if variant == "gn":
        a_sq = _sq_rows(A)

        def factory(X, params):
            Y = onmf_gauss_newton_Y(A, X)
            return PenalizedObjective(OnmfQuadObjective(A, Y, _a_sq=a_sq),
                                      ctx, params)

    report = ep4orth_solve(f_true, ctx, cfg, X0=X0, X_feas=X_feas,
                           inner_factory=factory)
    report.extra["resi"] = resi(A, report.final)
    return report


# ---------------------------------------------------------------------------
# clustering metrics


def _contingency(pred, true):
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.ndim != 1 or pred.shape != true.shape or pred.size == 0:
        raise BadLabels("labels must be equal-length nonempty vectors")
    if not (np.issubdtype(pred.dtype, np.integer)
            and np.issubdtype(true.dtype, np.integer)):
        raise BadLabels("labels must be integers")
    if pred.min() < 0 or true.min() < 0:
        raise BadLabels("labels must be nonnegative")
    kp = int(pred.max()) + 1
    kt = int(true.max()) + 1
    table = np.zeros((kt, kp))
    np.add.at(table, (true, pred), 1.0)
    return table


def _plogp(counts, n):
    """p log2 p over the nonzero cells p of counts / n, as a list."""
    p = counts[counts > 0] / n
    return (p * np.log2(p)).tolist()


def clustering_metrics(pred, true, k: Optional[int] = None) -> dict:
    """Purity, normalized entropy and NMI of a predicted clustering.

    Entropy is H(true | pred) normalized by log2(k) (k defaults to the
    number of predicted clusters), so it lies in [0, log2(t) / log2(k)]
    for t true classes: above 1 when there are more true classes than k.
    NMI uses max(H(pred), H(true)) and is 0 when either entropy vanishes;
    purity and NMI lie in [0, 1]. H(true), H(pred), the conditional
    entropy H(joint) - H(pred) and the mutual information H(true) +
    H(pred) - H(joint) are each one exactly rounded sum (math.fsum) of
    p log2 p over table cells, so relabelling the clusters of either
    partition keeps every bit, and a perfect partition reads exactly 1.
    """
    table = _contingency(pred, true)
    n = table.sum()
    if k is None:
        k = table.shape[1]
    purity = float(table.max(axis=0).sum() / n)
    t_joint = _plogp(table, n)
    t_true = _plogp(table.sum(axis=1), n)
    t_pred = _plogp(table.sum(axis=0), n)
    ent = 0.0
    if k > 1:
        # +0.0, not -0.0, when the sum cancels
        ent = math.fsum(t_pred + [-v for v in t_joint]) / math.log2(k) + 0.0
    h_true, h_pred = -math.fsum(t_true), -math.fsum(t_pred)
    # one sum, not three: H(true) + H(pred) nearly cancels H(joint)
    mi = math.fsum(t_joint + [-v for v in t_true + t_pred])
    hmax = max(h_true, h_pred)
    nmi = min(max(mi / hmax, 0.0), 1.0) if hmax > 0 else 0.0
    return {"purity": purity, "entropy": ent, "nmi": nmi}


# ---------------------------------------------------------------------------
# K-indicators clustering


@dataclasses.dataclass(frozen=True)
class KindicatorsInstance:
    """Orthonormal feature matrix U with planted cluster labels."""

    U: np.ndarray
    labels: np.ndarray
    k: int
    noise: float
    seed: int


def gen_kindicators(n: int, k: int, noise: float, seed: int) -> KindicatorsInstance:
    """U = orth(0/1 indicator + noise * gaussian), labels planted.

    The perturbation is scaled against the unit entries of the raw
    membership matrix, so noise is a relative corruption level: at
    noise = 0.1 every row still points clearly at its planted column.
    """
    _check_noise("noise", noise)
    rng = _rng(seed)
    labels = _random_labels(n, k, rng)
    F = np.zeros((n, k))
    F[np.arange(n), labels] = 1.0
    M = F + noise * rng.standard_normal((n, k))
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    U = Q * signs
    return KindicatorsInstance(U=U, labels=labels, k=k, noise=float(noise),
                               seed=seed)


class KindicatorsObjective(Objective):
    """K-indicators objective f(X) = min over orthogonal Y of ||U Y - X||_F^2.

    U has orthonormal columns, so the minimizing Y is the Procrustes
    factor polar(U^T X), and the gradient is 2 (X - U polar(U^T X)).
    The target U Y is kept for the last array passed (compared by
    identity), which the driver's residual and the inner models share.
    """

    def __init__(self, U):
        self.U = np.asarray(U, dtype=float)
        self._X = self._target = None

    def target(self, X):
        """U Y for the Procrustes factor Y = polar(U^T X)."""
        if X is not self._X:
            self._X = self._target = None  # free the old target first
            target = np.matmul(self.U, project_orthogonal_group(self.U.T @ X),
                               order=_order(X))
            target.setflags(write=False)  # handed to every caller
            self._X, self._target = X, target
        return self._target

    def value(self, X):
        R = X - self.target(X)
        return inner(R, R)

    def grad(self, X):
        return 2.0 * (X - self.target(X))


class KindicatorsModel(Objective):
    """Inner model h(X) = -||U^T X||_* / sigma + (1/2) ||X V||_F^2.

    At each X, h and its gradient are those of the ScaledLinearPenalty at
    the target f.target(X), so a projected-gradient step on h is one
    alternating step of K-indicators: Procrustes refit, then a step in X.
    The model holds no n x k array of its own: its target is f's, which f
    keeps for the last array evaluated, so value and then grad at an
    iterate build it once. It keeps X V (n x r) for the last X, so value
    and grad at one iterate form that once too, and refers to that X
    weakly, so it keeps no iterate alive.

    Its gradient has the penalty's bits, formed in one n x k array with no
    C / sigma array (_grad_in_one_array): C moves with every iterate, so
    there is no C / sigma to keep (kept per target array, it raised the
    traced kindicators_solve peak on 5000 x 40 from 9.12 to 10.07 n x k
    arrays), and forming it whole would hold one more n x k array beside
    the gradient.
    """

    def __init__(self, f: KindicatorsObjective, ctx: PenaltyContext,
                 sigma: float):
        self.f, self.ctx, self.sigma = f, ctx, sigma
        self._last = None  # (weak reference to X, X V)

    def _at(self, X):
        model = ScaledLinearPenalty(self.f.target(X), self.ctx, self.sigma)
        if self._last is not None and self._last[0]() is X:
            model._X, model._XV = X, self._last[1]
        else:
            self._last = weakref.ref(X), model._xv(X)
        return model

    def value(self, X):
        return self._at(X).value(X)

    def grad(self, X):
        model = self._at(X)
        return _grad_in_one_array(model.C, self.sigma, model._xv(X),
                                  self.ctx.V, _order(X))


# entries of one block of the rank-r term in _grad_in_one_array: its
# temporary is this many doubles (128 kB), not an n x k array
GRAD_BLOCK = 1 << 14


def _grad_in_one_array(C, sigma, XV, V, order):
    """ScaledLinearPenalty's gradient (X V) V^T - C / sigma, the same bits,
    in one n x k array laid out in order, with no C / sigma array.

    The array is first C / (-sigma); the rank-r term, the sum over the
    columns v_l of V of the rank-one products (X v_l) v_l^T, is added in
    blocks of about GRAD_BLOCK entries along the array's contiguous axis
    (row blocks of a row-major array, column blocks of a column-major
    one), each block's sum over l formed before it is added. Since
    C / (-sigma) = -(C / sigma) and p + (-c) = p - c exactly, these are
    the bits of the penalty's formula, and one block's temporary is all
    that lives beside the gradient.
    """
    G = np.divide(C, -sigma, order=order)
    # G^T = V (X V)^T: a column-major G is a row-major G^T
    Gr, A, B = (G.T, V, XV) if order == "F" else (G, XV, V)
    rows = max(1, GRAD_BLOCK // Gr.shape[1])
    for i in range(0, Gr.shape[0], rows):
        blk = slice(i, i + rows)
        P = A[blk, :1] * B[:, 0]
        for j in range(1, B.shape[1]):
            P += A[blk, j:j + 1] * B[:, j]
        Gr[blk] += P
    return G


def kindicators_solve(U: np.ndarray,
                      cfg: Optional[DriverConfig] = None) -> SolveReport:
    """Cluster the rows of an orthonormal U by K-indicators.

    The driver minimizes KindicatorsObjective (default: kindicators_preset)
    from project(U), anchored at round(project(U)). The rounded point is
    refined against U Y, Y = polar(U^T X) at the pre-rounding iterate X;
    labels are its row argmax. kkt_residual covers both blocks (X, Y), and
    extra["max_iterate_dev"] is the larger of X's column-norm and Y's
    orthogonality deviations. U is used column-major (copied once if it is
    not).
    """
    t0 = time.perf_counter()
    U = _as_float_matrix(U, "U", order="F", tall=True)
    n, k = U.shape
    orth_dev = float(np.linalg.norm(U.T @ U - np.eye(k)))
    if not orth_dev <= 1e-8:
        raise BadShape(f"U columns must be orthonormal, deviation {orth_dev!r}")
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else kindicators_preset()
    f = KindicatorsObjective(U)
    # the list hands the start over: once the driver has moved off it,
    # nothing keeps it alive (on CPython 3.11 and later, whose calls take
    # over their arguments' references)
    start = [project_oblique_plus(U)]
    X_feas = rounding.round(start[0])

    def factory(X, params):
        return KindicatorsModel(f, ctx, params.sigma)

    report = ep4orth_solve(f, ctx, cfg, X0=start.pop(), X_feas=X_feas,
                           inner_factory=factory)
    X = report.extra["X_preround"]
    XR = report.extra["X_rounded"]
    UtX = U.T @ X
    Y = project_orthogonal_group(UtX)
    UY = U @ Y
    GY = 2.0 * (Y - UtX)
    res_y = float(np.linalg.norm(Y - project_orthogonal_group(Y - GY)))
    if cfg.do_postprocess:
        # f has no refine structure, so the driver returned XR as it was
        report.final = postprocess(XR, TargetDistanceObjective(UY))
    report.objective = float(np.linalg.norm(UY - report.final) ** 2)
    report.kkt_residual = max(report.kkt_residual, res_y)
    report.feasibility = feasibility_violation(report.final)
    report.seconds = time.perf_counter() - t0
    report.extra["labels"] = np.argmax(XR, axis=1)
    report.extra["Y"] = Y
    report.extra["max_iterate_dev"] = max(
        float(np.abs(np.linalg.norm(X, axis=0) - 1.0).max()),
        norm(Y.T @ Y - np.eye(k)))
    return report
