"""Penalty family P = f + sigma * (zeta_q + eps)^p on the nonnegative
oblique set.

The derivative formulas here are the load-bearing part of the whole
package, so they get checked three ways: against closed forms at p=1,
q=2, against finite differences along the column-normalization
retraction, and through the constructed counter-example instance whose
stationarity status is known exactly.
"""

import numpy as np
import pytest

from penorth import make_context
from penorth.errors import BadShape, NotFeasible, SingularCurvature
from penorth.manifold import (riemannian_grad, riemannian_hess_apply,
                              stationarity_residual)
from penorth.penalty import (PenalizedObjective, check_stationarity_original,
                             zeta)
from penorth.problems import (LinearObjective, OnmfQuadObjective,
                              OpnmfObjective, TargetDistanceObjective)
from penorth.types import PenaltyParams

import oracles


S3 = np.sqrt(3.0) / 2.0
# constructed instance: linear objective pushing mass into row 1, with the
# one-parameter family of penalty-stationary points X(sigma)
C_EX = np.array([[-1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
X_SIGMA2 = np.array([[0.5, 0.5], [S3, 0.0], [0.0, S3]])
X_LIMIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def params_p1q2(sigma):
    return PenaltyParams(sigma=sigma, p=1.0, q=2.0, eps=0.0)


def test_zeta_zero_iff_feasible():
    ctx = make_context(6, 3)
    rng = oracles.rng_for(10)
    Xf = oracles.random_feasible(rng, 6, 3)
    assert abs(zeta(Xf, ctx)) < 1e-14
    Xg = oracles.random_unit_columns(rng, 6, 3, strictly_positive=True)
    assert zeta(Xg, ctx) > 1e-3


def test_zeta_closed_form():
    # zeta_2 = (1/k) * sum of all pairwise column inner products, k=2
    ctx = make_context(4, 2)
    rng = oracles.rng_for(11)
    X = oracles.random_unit_columns(rng, 4, 2)
    ip = float(X[:, 0] @ X[:, 1])
    assert zeta(X, ctx) == pytest.approx(ip, rel=1e-12)


def test_penalty_value_assembles_pieces():
    ctx = make_context(5, 2)
    rng = oracles.rng_for(12)
    X = oracles.random_unit_columns(rng, 5, 2)
    A = rng.standard_normal((5, 2))
    f = LinearObjective(-A)  # value is <-A, X>
    params = PenaltyParams(sigma=3.0, p=0.5, q=2.0, eps=0.1)
    value = PenalizedObjective(f, ctx, params).value(X)
    z = zeta(X, ctx)
    assert value == pytest.approx(float(np.sum(-A * X))
                                  + 3.0 * np.sqrt(z + 0.1), rel=1e-12)


def test_grad_closed_form_p1_q2():
    # at p=1, q=2 the penalty is sigma*(||XV||^2 - 1); its Euclidean
    # gradient is exactly 2*sigma*X V V^T
    ctx = make_context(5, 3)
    rng = oracles.rng_for(13)
    X = oracles.random_unit_columns(rng, 5, 3)
    sigma = 2.5
    h = PenalizedObjective(LinearObjective(np.zeros((5, 3))), ctx,
                           params_p1q2(sigma))
    rg = riemannian_grad(X, h.grad(X))
    G_euc = 2.0 * sigma * X @ ctx.vvt
    want = G_euc - X * np.einsum("ij,ij->j", X, G_euc)
    assert np.allclose(rg, want, atol=1e-13)


@pytest.mark.parametrize("p,q,eps", [
    (1.0, 2.0, 0.0),
    (1.0, 1.0, 0.0),
    (1.0, 4.0, 0.0),
    (0.5, 2.0, 0.1),
    (0.5, 1.0, 0.1),
    (2.0, 2.0, 0.0),
])
def test_rgrad_matches_fd(p, q, eps):
    ctx = make_context(6, 3)
    rng = oracles.rng_for(hash((p, q, eps)) % 2**31)
    X = oracles.random_unit_columns(rng, 6, 3, strictly_positive=True)
    A = rng.standard_normal((6, 3))
    f = LinearObjective(A)
    h = PenalizedObjective(f, ctx, PenaltyParams(sigma=1.7, p=p, q=q, eps=eps))
    D = oracles.random_tangent(rng, X)
    lhs = float(np.tensordot(riemannian_grad(X, h.grad(X)), D))
    rhs = oracles.fd_directional(h.value, X, D)
    assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize("p,q,eps", [
    (1.0, 2.0, 0.0),
    (1.0, 4.0, 0.0),
    (0.5, 2.0, 0.1),
    (2.0, 1.0, 0.0),
])
def test_rhess_matches_fd(p, q, eps):
    ctx = make_context(5, 2)
    rng = oracles.rng_for(hash((q, p, eps)) % 2**31)
    X = oracles.random_unit_columns(rng, 5, 2, strictly_positive=True)
    A = rng.standard_normal((5, 2))
    f = LinearObjective(A)
    h = PenalizedObjective(f, ctx, PenaltyParams(sigma=0.9, p=p, q=q, eps=eps))
    D = oracles.random_tangent(rng, X)
    H = riemannian_hess_apply(X, h.grad(X), h.hess_apply(X, D), D)
    lhs = float(np.tensordot(D, H))
    rhs = oracles.fd_second(h.value, X, D)
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7)


def test_penalized_objective_euclidean_grad_fd():
    ctx = make_context(4, 2)
    rng = oracles.rng_for(14)
    X = oracles.random_unit_columns(rng, 4, 2, strictly_positive=True)
    A = rng.standard_normal((4, 2))
    h = PenalizedObjective(LinearObjective(A), ctx,
                           PenaltyParams(sigma=2.0, p=1.0, q=2.0, eps=0.0))
    G = np.asarray(h.grad(X))
    Gfd = oracles.fd_euclidean_grad(lambda Y: float(h.value(Y)), X)
    assert np.allclose(G, Gfd, rtol=1e-6, atol=1e-8)


# --------------------------------------------------------------------------
# the constructed counter-example instance


def test_constructed_point_is_penalty_stationary():
    ctx = make_context(3, 2)
    h = PenalizedObjective(LinearObjective(C_EX), ctx, params_p1q2(2.0))
    res = stationarity_residual(X_SIGMA2, h.grad(X_SIGMA2))
    assert res <= 1e-12


def test_constructed_family_stationary_along_sigma():
    ctx = make_context(3, 2)
    for sigma in [2.0, 4.0, 10.0, 100.0]:
        t = 1.0 / sigma
        r = np.sqrt(1.0 - t * t)
        X = np.array([[t, t], [r, 0.0], [0.0, r]])
        h = PenalizedObjective(LinearObjective(C_EX), ctx, params_p1q2(sigma))
        res = stationarity_residual(X, h.grad(X))
        assert res <= 1e-12, f"sigma={sigma}: residual {res}"


def test_limit_point_weakly_stationary_only():
    rep = check_stationarity_original(X_LIMIT, LinearObjective(C_EX))
    assert rep.classification == "weakly-stationary"
    assert rep.grad_violation <= 1e-12
    assert rep.sign_violation == pytest.approx(1.0)  # the -1 entries of C


def test_stationary_classification_on_clean_optimum():
    C = -np.eye(4, 2)
    X = np.eye(4, 2)
    rep = check_stationarity_original(X, LinearObjective(C))
    assert rep.classification == "stationary"


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
def test_stationarity_check_rejects_a_tolerance_that_decides_nothing(tol):
    # with a NaN every comparison fails and the exact optimum would read
    # "not-stationary"
    with pytest.raises(BadShape, match="tol must be finite and nonnegative"):
        check_stationarity_original(np.eye(4, 2), LinearObjective(-np.eye(4, 2)),
                                    tol=tol)


def test_not_stationary_classification():
    # gradient does not vanish on the support
    C = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, -1.0]])
    X = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]])
    rep = check_stationarity_original(X, LinearObjective(C))
    assert rep.classification == "not-stationary"


def test_sign_condition_skips_zeros_in_rows_with_support():
    # row 0 is all zero and its gradient nonnegative; the -1 sits on a zero
    # of row 1, which has support, so orthogonality (not the bound) holds it
    C = np.array([[1.0, 2.0], [0.0, -1.0], [0.0, 0.0]])
    rep = check_stationarity_original(X_LIMIT, LinearObjective(C))
    # under a sign condition on every zero this would be weakly-stationary
    assert rep.classification == "stationary"
    assert rep.grad_violation == 0.0
    assert rep.sign_violation == 0.0


def test_stationarity_check_requires_feasible_input():
    X = np.full((4, 2), 0.5)  # unit columns but far from orthogonal
    with pytest.raises(NotFeasible):
        check_stationarity_original(X, LinearObjective(np.zeros((4, 2))))
    # a NaN violation fails every comparison, so "above the tolerance" alone
    # would classify an all-NaN point as stationary; the shared input check
    # refuses it before the feasibility test
    with pytest.raises(BadShape, match="X contains non-finite entries"):
        check_stationarity_original(np.full((4, 2), np.nan),
                                    LinearObjective(np.zeros((4, 2))))


@pytest.mark.parametrize("n,k", [(30, 3), (5000, 20)])  # both sides of 256 KiB
@pytest.mark.parametrize("order", ["C", "F"])
def test_penalized_grad_takes_the_layout_rule(n, k, order):
    # the gradient is formed in manifold._order(X) at every size, not in
    # whatever layout numpy's temporary elision leaves, with the formula's bits
    rng = oracles.rng_for(n + k)
    X = np.asarray(oracles.random_unit_columns(rng, n, k), order=order)
    C = np.asarray(rng.standard_normal((n, k)), order=order)
    ctx = make_context(n, k)
    f = TargetDistanceObjective(C)
    h = PenalizedObjective(f, ctx, params_p1q2(3.0))
    G = h.grad(X)
    assert G.flags.f_contiguous == (order == "F")
    assert G.flags.c_contiguous == (order == "C")
    # at p = 1, q = 2 the penalty term's gradient is sigma * 2 X V V^T
    assert np.array_equal(G, f.grad(X) + 3.0 * 2.0 * (X @ ctx.vvt))


# --------------------------------------------------------------------------
# Hessian operator built once per point


def same_bits(a, b):
    return a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p,eps", [(1.0, 0.0), (2.0, 0.0), (0.5, 0.1)])
@pytest.mark.parametrize("q", [2.0, 3.0])
def test_hess_at_matches_per_call_body_bit_for_bit(p, q, eps):
    rng = oracles.rng_for(70)
    n, k = 30, 3
    A = rng.random((n, 12))
    X = oracles.random_unit_columns(rng, n, k)
    ctx = make_context(n, k)
    params = PenaltyParams(sigma=0.7, p=p, q=q, eps=eps)
    quad = OnmfQuadObjective(A, rng.random((12, k)))
    cases = [(quad, lambda D: quad.hess_apply(X, D)),
             (OpnmfObjective(A), lambda D: oracles.opnmf_hess_apply(A, X, D))]
    for f, f_hess in cases:
        h = PenalizedObjective(f, ctx, params)
        hess = h.hess_at(X)
        for order in ("C", "F"):
            for _ in range(3):
                D = np.asarray(rng.standard_normal((n, k)), order=order)
                want = oracles.penalized_hess_apply(f_hess, ctx.V, params, X, D)
                assert same_bits(hess(D), want)
                assert same_bits(h.hess_apply(X, D), want)


def test_hess_at_raises_singular_curvature_on_apply_not_build():
    # p < 1 without smoothing: the curvature blows up at zero residual,
    # which every feasible point has
    X = oracles.random_feasible(oracles.rng_for(71), 6, 2)
    ctx = make_context(6, 2)
    h = PenalizedObjective(LinearObjective(np.ones((6, 2))), ctx,
                           PenaltyParams(sigma=1.0, p=0.5, q=2.0, eps=0.0))
    hess = h.hess_at(X)
    D = np.ones((6, 2))
    # the per-call reference finds the curvature undefined here too
    assert oracles.penalized_hess_apply(lambda D: 0.0 * D, ctx.V, h.params,
                                        X, D) is None
    with pytest.raises(SingularCurvature):
        hess(D)
    with pytest.raises(SingularCurvature):
        h.hess_apply(X, D)
