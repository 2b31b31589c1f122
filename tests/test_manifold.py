import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from penorth import make_oblique
from penorth.errors import BadShape, NotTangent
from penorth.manifold import (_project_ob_plus_raw, inner, norm,
                              project_oblique_plus, project_orthogonal_group,
                              project_tangent_T, projected_step,
                              riemannian_grad, riemannian_hess_apply,
                              stationarity_residual)

import oracles


finite_mats = arrays(np.float64, (5, 3),
                     elements=st.floats(-10, 10, allow_nan=False))


@given(finite_mats)
@settings(max_examples=60, deadline=None)
def test_project_oblique_plus_lands_on_set(C):
    M = project_oblique_plus(C)
    assert np.all(M >= 0)
    assert np.allclose(np.linalg.norm(M, axis=0), 1.0, atol=1e-12)


@given(finite_mats)
@settings(max_examples=60, deadline=None)
def test_project_oblique_plus_fixes_feasible_points(C):
    M = project_oblique_plus(C)
    again = project_oblique_plus(M)
    assert np.allclose(again, M, atol=1e-15)


def test_project_oblique_plus_dead_column_reset():
    # an all-nonpositive column clips to zero; the projection must still
    # return a unit column, placed at the largest entry (smallest index tie)
    C = np.array([[-1.0, 2.0], [-3.0, 1.0], [-1.0, 0.0]])
    M = project_oblique_plus(C)
    assert np.linalg.norm(M[:, 0]) == 1.0
    assert M[0, 0] == 1.0  # argmax of (-1,-3,-1) is index 0


def test_project_oblique_plus_tie_breaks_smallest_index():
    C = np.array([[-2.0], [-2.0], [-5.0]])
    M = project_oblique_plus(C)
    assert M[0, 0] == 1.0 and M[1, 0] == 0.0


def oblique_projection_cases():
    """Matrices in C, Fortran and strided layouts: generic, with dead
    (nonpositive, zero or NaN) and tied columns, at extreme scales."""
    rng = oracles.rng_for(70)
    for n, k in [(1, 1), (1, 4), (7, 1), (6, 3), (100, 3), (5000, 20)]:
        for scale in (1e-300, 1.0, 1e300):
            C = scale * rng.standard_normal((n, k))
            yield C
            yield np.asfortranarray(C)
            yield (scale * rng.standard_normal((2 * n, 3 * k)))[::2, ::3]
        dead = rng.standard_normal((n, k))
        dead[:, 0] = -np.abs(dead[:, 0])
        dead[:, -1] = 0.0
        yield dead
        yield np.asfortranarray(dead)
        ties = np.round(rng.standard_normal((n, k)))
        ties[:, 0] = -1.0  # a dead column tied all the way down
        yield ties
    with_nan = rng.standard_normal((6, 3))
    with_nan[2, 1] = np.nan
    yield with_nan


def test_project_ob_plus_raw_matches_formula_bit_for_bit():
    count = 0
    for C in oblique_projection_cases():
        before = C.copy()
        with np.errstate(all="raise"):
            got = _project_ob_plus_raw(C)
        want = oracles.oblique_projection_one_pass(C)
        assert got.tobytes() == want.tobytes(), C
        assert got.strides == want.strides  # same memory layout
        assert np.array_equal(C, before, equal_nan=True)
        count += 1
    assert count == 73


def ulps_apart(a, b):
    """Entrywise distance in units in the last place of nonnegative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_one_pass_formula_is_within_32_ulps_of_gather():
    """The one-pass formula against the peak-scaled gather it replaced,
    whose bits the kernel had before: a few ulps per entry, and the same
    layout."""
    worst = 0
    for C in oblique_projection_cases():
        got = oracles.oblique_projection_one_pass(C)
        want = oracles.oblique_projection_gather(C)
        assert got.strides == want.strides
        worst = max(worst, int(ulps_apart(got, want).max()))
    assert 0 < worst <= 32


# the columns of mixed_scale_matrix that take the peak-scaled path
MIXED_FALLBACK = np.array([False, True, False, True, True, True, False,
                           False, True, True, True])


def mixed_scale_matrix(rng, n):
    """Columns that take the one-pass path next to columns that take the
    peak-scaled path (MIXED_FALLBACK): tiny and huge scales on both sides
    of the thresholds on the sums of squares, a dead column, an all-zero
    one and one with a NaN."""
    scales = [1.0, 1e-300, 1.0, 1e300, 1e-140, 1e140, 1e-130, 1e130, 1.0,
              1.0, 1.0]
    C = np.abs(rng.standard_normal((n, len(scales)))) * scales
    C[:, 2] = rng.standard_normal(n)  # negatives to clip
    C[0, 2] = 1.0  # and live
    C[:, 8] = -C[:, 8]  # dead
    C[:, 9] = 0.0
    C[n // 2, 10] = np.nan
    return C


def test_project_ob_plus_raw_mixes_one_pass_and_fallback_columns():
    rng = oracles.rng_for(73)
    for n in (1, 7, 5000):
        C_base = mixed_scale_matrix(rng, n)
        y = np.maximum(C_base, 0.0)
        ss = np.einsum("ij,ij->j", y, y)
        one_pass = (ss >= 2.0 ** -900) & (ss <= 2.0 ** 900)
        assert np.array_equal(~one_pass, MIXED_FALLBACK)
        for C in layouts(C_base):
            with np.errstate(all="raise"):
                got = _project_ob_plus_raw(C)
            want = oracles.oblique_projection_one_pass(C)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
            # the peak-scaled columns keep the gather's bits
            gather = oracles.oblique_projection_gather(C)
            assert np.array_equal(got[:, MIXED_FALLBACK],
                                  gather[:, MIXED_FALLBACK])
            assert np.all(got >= 0)
            assert np.allclose(np.linalg.norm(got, axis=0), 1.0, atol=1e-14)
            for j in (8, 9, 10):
                e = np.zeros(n)
                e[int(np.argmax(C[:, j]))] = 1.0
                assert np.array_equal(got[:, j], e)


@pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
def test_project_oblique_plus_rejects_matrix_without_rows(shape):
    with pytest.raises(BadShape):
        project_oblique_plus(np.zeros(shape))


def test_project_oblique_plus_leaves_argument_unchanged():
    rng = oracles.rng_for(71)
    for C in (rng.standard_normal((50, 4)),
              np.asfortranarray(rng.standard_normal((50, 4))),
              -np.ones((5, 2))):
        before = C.copy()
        project_oblique_plus(C)
        assert C.tobytes() == before.tobytes()


def layouts(A):
    """A in C, Fortran, strided, Fortran-strided and reversed layouts."""
    n, k = A.shape
    big = np.zeros((2 * n, 3 * k))
    big[::2, ::3] = A
    return [A, np.asfortranarray(A), big[::2, ::3],
            np.asfortranarray(big)[::2, ::3], A[::-1]]


def step_cases(rng, n, k):
    """(X, G) pairs: generic; with a dead, an all-zero and a NaN column of
    X - 0.7 G; and with rounded ties, one dead column tied all the way
    down."""
    yield rng.standard_normal((n, k)), rng.standard_normal((n, k))
    X, G = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    G[:, 0] = (np.abs(X[:, 0]) + 1.0) * 2.0  # X - 0.7 G < 0
    X[:, -1] = G[:, -1] = 0.0
    if k >= 3:
        G[n // 2, 1] = np.nan
    yield X, G
    X, G = np.round(rng.standard_normal((n, k))), np.round(rng.standard_normal((n, k)))
    X[:, 0], G[:, 0] = -1.0, 0.0
    yield X, G


def test_projected_step_matches_expression_bit_for_bit():
    """Values and memory layout of _project_ob_plus_raw(X - alpha * G) for
    every pairing of C-ordered, Fortran-ordered, strided and reversed X and
    G (a Fortran-ordered gradient must not make the iterate Fortran-ordered
    when X is C-ordered), with dead, zero, NaN and tied columns. The step
    projects its own temporary in place; X and G stay as they were."""
    rng = oracles.rng_for(72)
    count = 0
    for n, k in [(1, 1), (1, 4), (7, 1), (6, 3), (5000, 20)]:
        for X_base, G_base in step_cases(rng, n, k):
            for X in layouts(X_base):
                for G in layouts(G_base):
                    X_before, G_before = X.tobytes(), G.tobytes()
                    want = _project_ob_plus_raw(X - 0.7 * G)
                    got = projected_step(X, 0.7, G)
                    assert got.tobytes() == want.tobytes()
                    assert got.strides == want.strides
                    assert X.tobytes() == X_before and G.tobytes() == G_before
                    count += 1
    assert count == 5 * 3 * 25


def test_projected_step_resets_dead_column_at_argmax_of_step():
    """A column of X - alpha * G with no positive entry becomes the
    coordinate vector at its largest entry, which neither X's nor -G's
    largest entry marks."""
    X = np.array([[0.6, 0.6], [0.8, 0.0], [0.0, 0.8]])
    G = np.array([[3.0, 0.0], [4.0, 1.0], [2.0, 0.0]])
    # column 0 of X - 0.5 G is (-0.9, -1.2, -1.0); reversed rows put its
    # largest entry last
    for Xl, Gl, want in [(X, G, [1.0, 0.0, 0.0]),
                         (np.asfortranarray(X), G, [1.0, 0.0, 0.0]),
                         (X, np.asfortranarray(G), [1.0, 0.0, 0.0]),
                         (X[::-1], G[::-1], [0.0, 0.0, 1.0])]:
        got = projected_step(Xl, 0.5, Gl)
        assert np.array_equal(got[:, 0], want)


@pytest.mark.parametrize("order", ["C", "F"])
def test_norm_is_the_root_of_inner_on_a_contiguous_array(order):
    # the BB step takes its step norm from <S, S>: one dot, one order
    rng = oracles.rng_for(36)
    for n, k in ((1, 1), (6, 1), (7, 3), (5000, 20)):
        S = np.asarray(rng.standard_normal((n, k)), order=order)
        assert float(np.sqrt(inner(S, S))) == norm(S)


def test_stationarity_residual_matches_expression_bit_for_bit():
    """norm(min(X, riemannian_grad(X, G))) in one buffer sums in the
    memory order the expression's result has, for every layout pairing."""
    rng = oracles.rng_for(74)
    for n, k in [(1, 1), (1, 4), (7, 1), (6, 3), (5000, 20)]:
        X_base = oracles.random_unit_columns(rng, n, k)
        X_base[rng.random((n, k)) < 0.3] = 0.0
        G_base = rng.standard_normal((n, k))
        if n * k > 1000:
            # these data tell the two summation orders apart
            R = np.minimum(X_base, riemannian_grad(X_base, G_base))
            assert norm(R) != norm(np.asfortranarray(R))
        for X in layouts(X_base):
            for G in layouts(G_base):
                X_before, G_before = X.tobytes(), G.tobytes()
                want = norm(np.minimum(X, riemannian_grad(X, G)))
                assert stationarity_residual(X, G) == want
                assert X.tobytes() == X_before and G.tobytes() == G_before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_oblique_plus_rejects_non_finite(bad):
    C = np.array([[1.0, 1.0], [1.0, 2.0]])
    C[0, 0] = bad
    with pytest.raises(BadShape):
        project_oblique_plus(C)


def test_riemannian_grad_is_tangent():
    rng = oracles.rng_for(0)
    X = oracles.random_unit_columns(rng, 6, 3)
    G = rng.standard_normal((6, 3))
    rg = riemannian_grad(X, G)
    assert np.allclose(np.einsum("ij,ij->j", X, rg), 0.0, atol=1e-12)


def test_riemannian_grad_matches_fd():
    rng = oracles.rng_for(1)
    X = oracles.random_unit_columns(rng, 6, 3)
    A = rng.standard_normal((6, 3))
    value = lambda Y: float(np.sum(A * Y) + 0.5 * np.sum(Y * Y * Y))
    grad = lambda Y: A + 1.5 * Y * Y
    D = oracles.random_tangent(rng, X)
    lhs = float(np.tensordot(riemannian_grad(X, grad(X)), D))
    rhs = oracles.fd_directional(value, X, D)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_riemannian_hess_matches_fd_quadratic_form():
    rng = oracles.rng_for(2)
    X = oracles.random_unit_columns(rng, 5, 2)
    A = rng.standard_normal((5, 2))
    value = lambda Y: float(np.sum(A * Y) + 0.5 * np.sum(Y * Y * Y))
    grad = lambda Y: A + 1.5 * Y * Y
    hess = lambda Y, W: 3.0 * Y * W
    D = oracles.random_tangent(rng, X)
    H = riemannian_hess_apply(X, grad(X), hess(X, D), D)
    lhs = float(np.tensordot(D, H))
    rhs = oracles.fd_second(value, X, D)
    assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-8)


def test_riemannian_hess_rejects_off_tangent():
    rng = oracles.rng_for(3)
    X = oracles.random_unit_columns(rng, 5, 2)
    D = rng.standard_normal((5, 2))  # generic, not tangent
    with pytest.raises(NotTangent):
        riemannian_hess_apply(X, np.zeros_like(X), np.zeros_like(X), D)


def test_project_tangent_T_matches_oracle():
    # projection onto the support-constrained tangent cone, column by column
    rng = oracles.rng_for(5)
    X = make_oblique(oracles.random_feasible(rng, 4, 2))
    D = rng.standard_normal((4, 2))
    got = project_tangent_T(X, D)
    want = np.column_stack([
        oracles.slice_projection_oracle(X[:, j], X[:, j] + D[:, j])
        - X[:, j]
        for j in range(2)
    ])
    assert np.allclose(got, want, atol=1e-10)


def test_project_tangent_T_returns_a_read_only_tangent():
    rng = oracles.rng_for(4)
    X = make_oblique(oracles.random_feasible(rng, 6, 2))
    D = project_tangent_T(X, rng.standard_normal((6, 2)))
    assert not D.flags.writeable
    assert np.abs(np.einsum("ij,ij->j", X, D)).max() <= 1e-10


def test_project_tangent_T_survives_cancellation():
    # shifting x_j + d_j along x_j leaves the slice projection unchanged, but
    # a shift of 1e7 cancels in max(c - lambda x, 0) and leaves a radial
    # residue x_j^T d_j far above the build tolerance unless it is removed
    rng = oracles.rng_for(6)
    X = make_oblique(oracles.random_unit_columns(rng, 100, 3,
                                                 strictly_positive=True))
    G = rng.standard_normal((100, 3))
    got = project_tangent_T(X, G + 1e7 * X)
    want = project_tangent_T(X, G)
    assert np.abs(np.einsum("ij,ij->j", X, got)).max() <= 1e-10
    assert np.allclose(got, want, atol=1e-6)


def test_polar_projection_is_orthogonal():
    rng = oracles.rng_for(6)
    M = rng.standard_normal((4, 4))
    Q = project_orthogonal_group(M)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)


def test_polar_projection_recovers_orthogonal_input():
    rng = oracles.rng_for(7)
    Q0, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert np.allclose(project_orthogonal_group(Q0), Q0, atol=1e-12)


def test_polar_projection_deterministic_on_rank_deficient():
    # repeated calls agree entry for entry, and the zero matrix maps to I
    M = np.zeros((3, 3))
    A = project_orthogonal_group(M)
    B = project_orthogonal_group(M)
    assert np.array_equal(A, B)
    assert np.array_equal(A, np.eye(3))
    M2 = np.diag([1.0, 0.0, 0.0])
    C1 = project_orthogonal_group(M2)
    assert np.allclose(C1.T @ C1, np.eye(3), atol=1e-12)
    assert np.array_equal(C1, project_orthogonal_group(M2))


def test_polar_projection_nearest_orthogonal():
    # the polar factor minimizes ||Q - M||_F over orthogonal Q;
    # spot-check against random orthogonal competitors
    rng = oracles.rng_for(8)
    M = rng.standard_normal((3, 3))
    Q = project_orthogonal_group(M)
    d0 = np.linalg.norm(Q - M)
    for _ in range(200):
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert d0 <= np.linalg.norm(R - M) + 1e-12


@pytest.mark.parametrize("shape", [(100, 3), (5000, 20), (1, 1)])
def test_inner_matches_tensordot_bit_for_bit(shape):
    # two column-major operands are summed in their memory order, the
    # row-major order of their transposes; any other pair row-major
    rng = oracles.rng_for(60)
    for order_a, order_b in [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C")]:
        A = np.asarray(rng.standard_normal(shape) * 1e3, order=order_a)
        B = np.asarray(rng.standard_normal(shape), order=order_b)
        both_f = order_a == order_b == "F"
        assert inner(A, B) == float(np.tensordot(A.T, B.T) if both_f
                                    else np.tensordot(A, B))
        assert inner(A, A) == float(np.tensordot(A.T, A.T) if order_a == "F"
                                    else np.tensordot(A, A))


def test_inner_copies_no_column_major_operand():
    # ravel of a column-major array in row-major order would copy it
    A = np.asfortranarray(oracles.rng_for(62).standard_normal((50, 4)))
    copies = []
    ravel = np.ndarray.ravel

    class Watched(np.ndarray):
        def ravel(self, order="C"):
            out = ravel(self, order)
            copies.append(not np.shares_memory(out, self))
            return out

    W = A.view(Watched)
    assert inner(W, W) == float(np.tensordot(A.T, A.T))
    assert copies == [False, False]


@pytest.mark.parametrize("shape", [(100, 3), (5000, 20), (1, 1), (7,)])
def test_norm_matches_linalg_norm_bit_for_bit(shape):
    rng = oracles.rng_for(61)
    for _ in range(20):
        A = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6)
        views = [A, np.asfortranarray(A), A[::-1], A[::2]]
        if A.ndim == 2:
            big = rng.standard_normal((2 * shape[0], 3 * shape[1]))
            views += [A.T, big[::2, ::3]]
        for V in views:
            assert norm(V) == float(np.linalg.norm(V))
