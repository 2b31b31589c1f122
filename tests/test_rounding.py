import tracemalloc

import numpy as np
import pytest

from penorth import make_context
from penorth.driver import _row_labels
from penorth.errors import BadShape
from penorth.penalty import zeta
from penorth.rounding import (_row_argmax, feasibility_violation, rho_q,
                              rho_tilde, round as round_point)

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


# --------------------------------------------------------------------------
# the row argmax and the one-array rounding against numpy's own formulas


def reference_round(X):
    """round() as np.argmax, a masked copy and np.linalg.norm form it."""
    Xd = np.asarray(X, dtype=float)
    n, k = Xd.shape
    jstar = np.argmax(Xd, axis=1)
    masked = np.zeros_like(Xd)
    rows = np.arange(n)
    masked[rows, jstar] = Xd[rows, jstar]
    norms = np.linalg.norm(masked, axis=0)
    if (norms == 0).any():
        return np.eye(n, k)
    out = masked / norms
    if feasibility_violation(out) > 1e-10:
        return np.eye(n, k)
    return out


def tied_matrix(rng, n, k, order):
    """Entries on a coarse grid, so rows tie often, with signed zeros,
    an all-zero row and an all-negative row."""
    X = rng.integers(-2, 4, size=(n, k)) * 0.5
    zeros = X == 0
    X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    X[1] = 0.0
    X[2, ::2] = -0.0
    X[3] = -rng.integers(1, 3, size=k) * 0.5
    X[4] = [0.0, -0.0] * (k // 2) + [0.0] * (k % 2)
    X[5] = [-0.0, 0.0] * (k // 2) + [-0.0] * (k % 2)
    return np.asarray(X, order=order)


# (n, k, order, takes the column-major path)
ARGMAX_SHAPES = [(5000, 20, "F", True), (600, 4, "F", True),
                 (100, 3, "F", False), (5000, 20, "C", False),
                 (600, 1, "F", True), (600, 126, "F", True),
                 (600, 127, "F", True), (600, 128, "F", False),
                 (600, 200, "F", False), (511, 4, "F", False)]


@pytest.mark.parametrize("n,k,order,columnwise", ARGMAX_SHAPES)
def test_row_argmax_is_numpys_argmax_and_max(n, k, order, columnwise,
                                             monkeypatch):
    rng = oracles.rng_for(30 + k)
    calls = []
    argmax = np.argmax
    monkeypatch.setattr(np, "argmax",
                        lambda *a, **kw: calls.append(1) or argmax(*a, **kw))
    for trial in range(3):
        X = tied_matrix(rng, n, k, order) if trial else np.asarray(
            rng.standard_normal((n, k)), order=order)
        idx, top = _row_argmax(X)
        want = argmax(X, axis=1)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
        assert np.array_equal(top, X.max(axis=1))
        # a zero maximum keeps the sign of the entry at idx
        rows = np.arange(n)
        assert top.tobytes() == X[rows, idx].tobytes()
    assert bool(calls) != columnwise


@pytest.mark.parametrize("order", ["C", "F"])
def test_row_argmax_of_a_row_with_nan(order):
    # np.argmax names the first NaN, the column-major path k; both report
    # the NaN as the row's maximum, and _row_labels labels the row -1
    X = np.asarray(oracles.rng_for(31).random((600, 4)), order=order)
    X[7, 2] = np.nan
    idx, top = _row_argmax(X)
    assert idx[7] == (4 if order == "F" else 2) and np.isnan(top[7])
    mask = np.arange(600) != 7
    assert np.array_equal(idx[mask], np.argmax(X, axis=1)[mask])
    assert _row_labels(X)[7] == -1
    with pytest.raises(BadShape):
        round_point(X)


def test_row_labels_are_the_argmax_of_rows_with_a_positive_entry():
    for order in "CF":
        X = tied_matrix(oracles.rng_for(32), 5000, 20, order)
        arg = np.argmax(X, axis=1)
        want = np.where(X[np.arange(5000), arg] > 0, arg, -1)
        assert np.array_equal(_row_labels(X), want)


def off_manifold_points():
    """Inputs on which round() resets to I_{n,k} (name, X)."""
    rng = oracles.rng_for(33)
    X = oracles.random_unit_columns(rng, 600, 4)
    neg_row = np.asfortranarray(X)
    neg_row[10] = -neg_row[10]  # its largest entry is negative
    dead = np.asfortranarray(X)
    dead[:, 3] = 0.5 * dead[:, 0]  # column 3 is no row's argmax
    huge = np.asfortranarray(X * 1e200)  # squares overflow
    # squares are subnormal: the columns' norms lose bits
    tiny = np.asfortranarray(X * 1e-157)
    return [("negative row", neg_row), ("dead column", dead),
            ("overflow", huge), ("subnormal squares", tiny)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name,X", off_manifold_points(),
                         ids=[p[0] for p in off_manifold_points()])
def test_round_still_resets_where_it_did(name, X):
    n, k = X.shape
    R = round_point(X)
    assert np.array_equal(R, np.eye(n, k))
    assert np.array_equal(reference_round(X), np.eye(n, k))
    assert not R.flags.writeable


@pytest.mark.parametrize("n,k,order", [(5000, 20, "F"), (5000, 20, "C"),
                                       (600, 4, "F"), (60, 4, "F"),
                                       (600, 200, "F"), (40, 3, "C")])
def test_round_keeps_the_masked_formulas_bits(n, k, order):
    rng = oracles.rng_for(34 + n + k)
    points = [oracles.random_unit_columns(rng, n, k),
              rng.standard_normal((n, k)) + 0.3,  # off the manifold
              np.abs(rng.standard_normal((n, k))) * 1e-150,
              np.abs(rng.standard_normal((n, k))) * 1e-156,
              np.abs(tied_matrix(rng, n, k, "C"))]
    points[4][0] = 1.0
    for P in points:
        X = np.asarray(P, order=order)
        R = round_point(X)
        want = reference_round(X)
        assert R.tobytes(order="A") == want.tobytes(order="A")
        assert R.flags.f_contiguous == want.flags.f_contiguous


def test_round_of_a_column_major_point_peaks_near_one_array():
    # one n x k array for the point, plus the n-vectors and the row
    # argmax's n x k bytes; forming the masked copy, its squares and the
    # quotient took 2.12 arrays
    X = np.asfortranarray(oracles.random_unit_columns(oracles.rng_for(35),
                                                      5000, 20))
    round_point(X)
    tracemalloc.start()
    try:
        round_point(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.nbytes


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
