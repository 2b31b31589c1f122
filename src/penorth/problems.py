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
import time
from typing import Optional

import numpy as np

from . import rounding
from .driver import (ep4orth_solve, feasible_init, kindicators_preset,
                     onmf_preset, postprocess, projection_preset)
from .errors import (BadLabels, BadShape, DimensionMismatch, NotFeasible,
                     SingularGram, ZeroColumn)
from .manifold import (inner, norm, project_oblique_plus,
                       project_orthogonal_group)
from .penalty import PenalizedObjective
from .rounding import FeasiblePoint, feasibility_violation
from .types import (DriverConfig, Objective, PenaltyContext, SolveReport,
                    make_context, oblique_data)


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
        return 2.0 * (X - self.C)

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

    The target is stored C-ordered, like the iterates, and the gradient's
    constant term C / sigma is computed once.
    """

    def __init__(self, C, ctx: PenaltyContext, sigma: float):
        self.C = np.ascontiguousarray(C, dtype=float)
        self.ctx = ctx
        self.sigma = float(sigma)
        self._c_sigma = self.C / self.sigma

    def value(self, X):
        XV = X @ self.ctx.V
        return (-inner(self.C, X) / self.sigma
                + 0.5 * inner(XV, XV))

    def grad(self, X):
        G = X @ self.ctx.vvt
        G -= self._c_sigma
        return G

    def hess_apply(self, X, D):
        return np.asarray(D, dtype=float) @ self.ctx.vvt


class OnmfQuadObjective(Objective):
    """f(X) = ||A - X Y^T||_F^2 for a fixed nonnegative Y (quadratic in X)."""

    refine_kind = "quadratic-form"

    def __init__(self, A, Y):
        self.A = np.asarray(A, dtype=float)
        self.Y = np.asarray(Y, dtype=float)
        if self.A.shape[1] != self.Y.shape[0]:
            raise DimensionMismatch(
                f"A has {self.A.shape[1]} columns but Y has {self.Y.shape[0]} rows")
        self._yty = self.Y.T @ self.Y
        self._ay = self.A @ self.Y
        self._a_sq = inner(self.A, self.A)

    def value(self, X):
        return (self._a_sq - 2.0 * inner(self._ay, X)
                + inner(X @ self._yty, X))

    def grad(self, X):
        return 2.0 * (X @ self._yty - self._ay)

    def hess_apply(self, X, D):
        return 2.0 * (np.asarray(D, dtype=float) @ self._yty)

    def refine_quadratic_submatrix(self, idx):
        As = self.A[idx, :]
        return As @ As.T


class OpnmfObjective(Objective):
    """Projective factorization objective f(X) = ||A - X X^T A||_F^2.

    Quartic in X. All products keep the n-by-r data matrix on the outside,
    so no n-by-n intermediate is ever formed.
    """

    refine_kind = "quadratic-form"

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

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

    def refine_quadratic_submatrix(self, idx):
        As = self.A[idx, :]
        return As @ As.T


# ---------------------------------------------------------------------------
# shared generator piece


def _random_feasible(n: int, k: int, rng) -> np.ndarray:
    """Random exactly-feasible matrix: rows assigned to columns uniformly
    (resampled until no column is empty), positive magnitudes, unit columns."""
    if n < k or k < 1:
        raise BadShape(f"need n >= k >= 1, got n={n}, k={k}")
    while True:
        assign = rng.integers(0, k, size=n)
        if np.unique(assign).size == k:
            break
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
    if xi < 0:
        raise BadShape(f"xi must be nonnegative, got {xi!r}")
    rng = np.random.default_rng(np.random.Philox(seed))
    B = _random_feasible(n, k, rng)
    Xs = (B > 0) * (1.0 + rng.random((n, k)))
    Xs = Xs / np.linalg.norm(Xs, axis=0)
    d = 0.5 + 3.0 * rng.random(k)
    L = xi * np.sqrt(np.outer(d, d)) * rng.random((k, k))
    np.fill_diagonal(L, d)
    C = Xs @ L.T
    return ProjectionInstance(C=C, X_star=Xs, L=L, xi=float(xi), seed=seed,
                              hypothesis_ok=_uniqueness_hypothesis(L))


def gap(X, X_star, C) -> float:
    """Relative optimality gap ||X - C|| / ||X_star - C|| - 1 (0 at optimum)."""
    X = oblique_data(X)
    den = float(np.linalg.norm(np.asarray(X_star, float) - np.asarray(C, float)))
    if den == 0:
        raise ZeroColumn("reference solution coincides with the target")
    return float(np.linalg.norm(X - np.asarray(C, float))) / den - 1.0


def solve_projection(C, cfg: Optional[DriverConfig] = None,
                     X_star=None) -> SolveReport:
    """Nearest feasible point to C via the exact-penalty driver.

    Uses the projection preset: fixed-step projected gradient on the
    rescaled linear model, start and anchor at round(project(C)).
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise BadShape("C must be a matrix")
    if not np.isfinite(C).all():
        raise BadShape("C contains non-finite entries")
    n, k = C.shape
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else projection_preset()
    f = TargetDistanceObjective(C)
    X_feas = feasible_init(ctx, hint=C)

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
    if xi < 0:
        raise BadShape(f"xi must be nonnegative, got {xi!r}")
    rng = np.random.default_rng(np.random.Philox(seed))
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
    must stay aligned with the input.
    """
    A = np.asarray(A, dtype=float)
    A = A[:, np.abs(A).sum(axis=0) > 0]
    if A.size == 0:
        raise BadShape("matrix is entirely zero")
    return A


def svd_init(A: np.ndarray, k: int):
    """Start point from the magnitudes of the top-k left singular vectors."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if not (1 <= k <= min(A.shape)):
        raise BadShape(f"need 1 <= k <= min(A.shape), got k={k}")
    U, _, _ = np.linalg.svd(A, full_matrices=False)
    return project_oblique_plus(np.abs(U[:, :k]))


def onmf_gauss_newton_Y(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Nonnegative least-squares-style update Y = max(A^T X (X^T X)^{-1}, 0).

    The Gram matrix is regularized by 1e-12 I on the first failure;
    SingularGram is raised if it still cannot be factored.
    """
    A = np.asarray(A, dtype=float)
    X = oblique_data(X)
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
    Xd = oblique_data(X)
    if feasibility_violation(Xd) > 1e-8:
        raise NotFeasible("resi is only meaningful at feasible points")
    return float(np.linalg.norm(A - Xd @ (Xd.T @ A)))


def solve_onmf(A: np.ndarray, k: int, cfg: Optional[DriverConfig] = None,
               variant: str = "gn", hyperspectral: bool = False) -> SolveReport:
    """Orthogonal NMF through the exact-penalty driver.

    variant "gn": each outer iteration refits Y by the clipped normal
    equations and minimizes the resulting quadratic-in-X penalty.
    variant "direct": minimizes the quartic projective objective itself.
    Reported objective and resi refer to the projective residual at the
    final feasible point.
    """
    if variant not in ("gn", "direct"):
        raise BadShape(f"unknown variant {variant!r}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise BadShape("A must be a matrix")
    if not np.isfinite(A).all():
        raise BadShape("A contains non-finite entries")
    n = A.shape[0]
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else onmf_preset(hyperspectral=hyperspectral)
    f_true = OpnmfObjective(A)
    X0 = svd_init(A, k)
    X_feas = rounding.round(X0.data)

    factory = None
    if variant == "gn":
        def factory(X, params):
            Y = onmf_gauss_newton_Y(A, X.data)
            return PenalizedObjective(OnmfQuadObjective(A, Y), ctx, params)

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


def _entropy_bits(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def clustering_metrics(pred, true, k: Optional[int] = None) -> dict:
    """Purity, normalized entropy and NMI of a predicted clustering.

    Entropy is normalized by log2(k) (k defaults to the number of

    predicted clusters); NMI uses max(H(pred), H(true)) and is 0 when
    either entropy vanishes. All three lie in [0, 1].
    """
    table = _contingency(pred, true)
    n = table.sum()
    if k is None:
        k = table.shape[1]
    purity = float(table.max(axis=0).sum() / n)
    cluster_sizes = table.sum(axis=0)
    ent = 0.0
    if k > 1:
        for j in range(table.shape[1]):
            col = table[:, j]
            pos = col > 0
            if pos.any():
                ent += float((col[pos] * np.log2(col[pos] / cluster_sizes[j])).sum())
        ent = -ent / (n * np.log2(k))
    h_true = _entropy_bits(table.sum(axis=1) / n)
    h_pred = _entropy_bits(cluster_sizes / n)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                mi += (nij / n) * np.log2(
                    n * nij / (table[i].sum() * cluster_sizes[j]))
    hmax = max(h_true, h_pred)
    nmi = float(mi / hmax) if hmax > 0 else 0.0
    return {"purity": purity, "entropy": float(ent), "nmi": nmi}


def sad(Y_true, Y_hat) -> float:
    """Mean spectral angle (radians) between matched columns.

    Columns are matched greedily by smallest angle (adequate at the tested
    sizes and deterministic). Raises ZeroColumn on any zero column.
    """
    Yt = np.asarray(Y_true, dtype=float)
    Yh = np.asarray(Y_hat, dtype=float)
    if Yt.shape != Yh.shape or Yt.ndim != 2:
        raise BadShape(f"need matching matrices, got {Yt.shape} and {Yh.shape}")
    nt = np.linalg.norm(Yt, axis=0)
    nh = np.linalg.norm(Yh, axis=0)
    if (nt == 0).any() or (nh == 0).any():
        raise ZeroColumn("zero column in spectral-angle input")
    cos = np.clip((Yt / nt).T @ (Yh / nh), -1.0, 1.0)
    ang = np.arccos(cos)
    k = ang.shape[0]
    rows = set(range(k))
    cols = set(range(k))
    total = 0.0
    for _ in range(k):
        best = None
        for i in rows:
            for j in cols:
                if best is None or ang[i, j] < best[0]:
                    best = (ang[i, j], i, j)
        total += best[0]
        rows.discard(best[1])
        cols.discard(best[2])
    return float(total / k)


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
    rng = np.random.default_rng(np.random.Philox(seed))
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size == k:
            break
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
            self._X = X
            self._target = self.U @ project_orthogonal_group(self.U.T @ X)
            self._target.setflags(write=False)  # handed to every caller
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
    That model is kept for the last array evaluated (compared by
    identity), so value and then grad at an iterate build it once.
    """

    def __init__(self, f: KindicatorsObjective, ctx: PenaltyContext,
                 sigma: float):
        self.f, self.ctx, self.sigma = f, ctx, sigma
        self._X = self._model = None

    def _at(self, X):
        if X is not self._X:
            self._X = X
            self._model = ScaledLinearPenalty(self.f.target(X), self.ctx,
                                              self.sigma)
        return self._model

    def value(self, X):
        return self._at(X).value(X)

    def grad(self, X):
        return self._at(X).grad(X)


def kindicators_solve(U: np.ndarray,
                      cfg: Optional[DriverConfig] = None) -> SolveReport:
    """Cluster the rows of an orthonormal U by K-indicators.

    The driver minimizes KindicatorsObjective (default: kindicators_preset)
    from project(U), anchored at round(project(U)). The rounded point is
    refined against U Y, Y = polar(U^T X) at the pre-rounding iterate X;
    labels are its row argmax. kkt_residual covers both blocks (X, Y), and
    extra["max_iterate_dev"] is the larger of X's column-norm and Y's
    orthogonality deviations.
    """
    t0 = time.perf_counter()
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] < U.shape[1]:
        raise BadShape("U must be n x k with n >= k")
    n, k = U.shape
    orth_dev = float(np.linalg.norm(U.T @ U - np.eye(k)))
    if orth_dev > 1e-8:
        raise BadShape(f"U columns must be orthonormal, deviation {orth_dev!r}")
    ctx = make_context(n, k)
    cfg = cfg if cfg is not None else kindicators_preset()
    f = KindicatorsObjective(U)
    X0 = project_oblique_plus(U)

    def factory(X, params):
        return KindicatorsModel(f, ctx, params.sigma)

    report = ep4orth_solve(f, ctx, cfg, X0=X0, X_feas=rounding.round(X0.data),
                           inner_factory=factory)
    X = report.extra["X_preround"]
    XR = report.extra["X_rounded"]
    Y = project_orthogonal_group(U.T @ X)
    UY = U @ Y
    GY = 2.0 * (Y - U.T @ X)
    res_y = float(np.linalg.norm(Y - project_orthogonal_group(Y - GY)))
    if cfg.do_postprocess:
        # f has no refine structure, so the driver returned XR as it was
        report.final = postprocess(FeasiblePoint(data=XR, mask=XR > 0),
                                   TargetDistanceObjective(UY)).data
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
