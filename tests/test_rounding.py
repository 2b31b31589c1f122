import numpy as np
import pytest

from penorth import make_context
from penorth.penalty import zeta
from penorth.rounding import (feasibility_violation, rho_q, rho_tilde, round
                              as round_point)

import oracles


def test_round_output_is_feasible():
    rng = oracles.rng_for(20)
    for _ in range(50):
        X = oracles.random_unit_columns(rng, 7, 3)
        R = round_point(X)
        assert feasibility_violation(R) <= 1e-14
        assert (R >= 0).all()
        # disjoint supports: at most one nonzero per row
        assert ((R > 0).sum(axis=1) <= 1).all()


@pytest.mark.parametrize("entry", [None, -0.25, -0.0, np.nan, np.inf, -np.inf])
def test_feasibility_violation_keeps_its_formula(entry):
    # the negative part is not formed when no entry is negative; the value
    # is the formula's, NaN for a NaN or infinite entry
    X = oracles.random_unit_columns(oracles.rng_for(25), 40, 3)
    if entry is not None:
        X[5, 1] = entry
    want = float(np.linalg.norm(X.T @ X - np.eye(3))
                 + np.linalg.norm(np.minimum(X, 0.0)))
    got = feasibility_violation(X)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert feasibility_violation(np.zeros((3, 0))) == 0.0


def test_round_keeps_feasible_points_fixed():
    rng = oracles.rng_for(21)
    X = oracles.random_feasible(rng, 8, 3)
    R = round_point(X)
    assert np.allclose(R, X, atol=1e-15)


def test_round_argmax_tie_smallest_index():
    X = np.array([[0.6, 0.6], [0.8, 0.8]])  # every row ties across columns
    R = round_point(X)
    # both rows keep column 0, so column 1 dies and the rounding falls
    # back to the identity pattern
    assert np.array_equal(R, np.eye(2))


def test_round_dead_column_resets_to_identity():
    # column 2 loses every argmax, leaving it empty after masking
    X = np.array([[1.0, 0.9], [0.0, 0.1]])
    X = X / np.linalg.norm(X, axis=0)
    R = round_point(X)
    if (R[:, 1] == 0).all():
        pytest.fail("dead column must be repaired")
    assert feasibility_violation(R) <= 1e-14


def test_rho_tilde_frozen_values():
    # three regimes of the rounding constant, k = 2
    s2 = np.sqrt(2.0)
    assert rho_tilde(2, 2.0) == 1.0
    assert rho_tilde(2, 3.0) == 1.0
    assert rho_tilde(2, 1.5) == pytest.approx((s2 + 1.0) / 1.5, rel=1e-15)
    # q = 1 belongs to the lower branch
    assert rho_tilde(2, 1.0) == pytest.approx(2.0 * s2 * (s2 + 1.0) / 2.0,
                                              rel=1e-15)
    assert rho_tilde(2, 0.5) == pytest.approx(
        2.0 * s2 * (s2 + 1.0) / (0.5 * 1.5), rel=1e-15)


def test_rho_q_frozen_value():
    # k=2, q=2, uniform direction: omega_min = 1/2, rho = sqrt(2k/omega) = 2 sqrt(2)
    ctx = make_context(5, 2)
    assert rho_q(ctx, 2.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("n,k,q", [(5, 2, 2.0), (8, 3, 1.5), (12, 4, 1.0),
                                   (6, 2, 0.5), (10, 5, 3.0)])
def test_error_bound_random_draws(n, k, q):
    ctx = make_context(n, k)
    bound_const = rho_q(ctx, q)
    rng = oracles.rng_for(100 * n + k)
    for _ in range(40):
        X = oracles.random_unit_columns(rng, n, k)
        R = round_point(X)
        lhs = np.linalg.norm(R - X)
        rhs = bound_const * np.sqrt(max(zeta(X, ctx, q=q), 0.0))
        assert lhs <= rhs + 1e-12


# --------------------------------------------------------------------------
# the sharpness witness: distance scales like sqrt(zeta), not faster


def sharpness_point(eps):
    return np.array([
        [np.sqrt(1.0 - eps * eps - 2.0 * eps), eps],
        [eps, np.sqrt(1.0 - eps * eps - eps)],
        [np.sqrt(2.0 * eps), np.sqrt(eps)],
    ])


def sharpness_projection(eps):
    s = np.sqrt(1.0 - eps * eps)
    return np.array([
        [np.sqrt(1.0 - eps * eps - 2.0 * eps) / s, 0.0],
        [0.0, 1.0],
        [np.sqrt(2.0 * eps) / s, 0.0],
    ])


def test_sharpness_point_well_formed():
    for eps in [1e-2, 1e-4, 1e-6]:
        X = sharpness_point(eps)
        assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-12)
        assert (X >= 0).all()


def test_round_recovers_closed_form_projection():
    for eps in [1e-2, 1e-4, 1e-6]:
        X = sharpness_point(eps)
        R = round_point(X)
        assert np.allclose(R, sharpness_projection(eps), atol=1e-14)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_sharpness_ratio_window(eps):
    ctx = make_context(3, 2)
    X = sharpness_point(eps)
    dist = np.linalg.norm(sharpness_projection(eps) - X)
    ratio = dist / np.sqrt(zeta(X, ctx))
    # the limit value is 1/sqrt(2 + sqrt(2)) ~ 0.5412
    assert 0.3 <= ratio <= 3.5
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0 + np.sqrt(2.0)), rel=0.2)
