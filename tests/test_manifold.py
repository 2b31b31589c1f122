import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from penorth import make_oblique
from penorth.errors import BadShape, NotTangent
from penorth.manifold import (_project_ob_plus_raw, inner, make_tangent, norm,
                              project_oblique_plus, project_orthogonal_group,
                              project_tangent_T, projected_step,
                              riemannian_grad, riemannian_hess_apply)

import oracles


finite_mats = arrays(np.float64, (5, 3),
                     elements=st.floats(-10, 10, allow_nan=False))


@given(finite_mats)
@settings(max_examples=60, deadline=None)
def test_project_oblique_plus_lands_on_set(C):
    M = project_oblique_plus(C)
    assert np.all(M.data >= 0)
    assert np.allclose(np.linalg.norm(M.data, axis=0), 1.0, atol=1e-12)


@given(finite_mats)
@settings(max_examples=60, deadline=None)
def test_project_oblique_plus_fixes_feasible_points(C):
    M = project_oblique_plus(C)
    again = project_oblique_plus(M.data)
    assert np.allclose(again.data, M.data, atol=1e-15)


def test_project_oblique_plus_dead_column_reset():
    # an all-nonpositive column clips to zero; the projection must still
    # return a unit column, placed at the largest entry (smallest index tie)
    C = np.array([[-1.0, 2.0], [-3.0, 1.0], [-1.0, 0.0]])
    M = project_oblique_plus(C)
    assert np.linalg.norm(M.data[:, 0]) == 1.0
    assert M.data[0, 0] == 1.0  # argmax of (-1,-3,-1) is index 0


def test_project_oblique_plus_tie_breaks_smallest_index():
    C = np.array([[-2.0], [-2.0], [-5.0]])
    M = project_oblique_plus(C)
    assert M.data[0, 0] == 1.0 and M.data[1, 0] == 0.0


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


def test_project_ob_plus_raw_matches_gather_bit_for_bit():
    count = 0
    for C in oblique_projection_cases():
        before = C.copy()
        got = _project_ob_plus_raw(C)
        want = oracles.oblique_projection_gather(C)
        assert got.tobytes() == want.tobytes(), C
        assert got.strides == want.strides  # same memory layout
        assert np.array_equal(C, before, equal_nan=True)
        count += 1
    assert count == 73


def test_project_oblique_plus_leaves_argument_unchanged():
    rng = oracles.rng_for(71)
    for C in (rng.standard_normal((50, 4)),
              np.asfortranarray(rng.standard_normal((50, 4))),
              -np.ones((5, 2))):
        before = C.copy()
        project_oblique_plus(C)
        assert C.tobytes() == before.tobytes()


def test_projected_step_matches_expression_bit_for_bit():
    """Values and memory layout of _project_ob_plus_raw(X - alpha * G) for
    every pairing of C-ordered, Fortran-ordered, strided and reversed X and
    G (a Fortran-ordered gradient must not make the iterate Fortran-ordered
    when X is C-ordered)."""
    rng = oracles.rng_for(72)
    for n, k in [(1, 1), (1, 4), (7, 1), (6, 3), (5000, 20)]:
        def layouts():
            A = rng.standard_normal((n, k))
            big = rng.standard_normal((2 * n, 3 * k))
            return [A, np.asfortranarray(A), big[::2, ::3],
                    np.asfortranarray(big)[::2, ::3], A[::-1]]
        for X in layouts():
            for G in layouts():
                want = _project_ob_plus_raw(X - 0.7 * G)
                got = projected_step(X, 0.7, G)
                assert got.tobytes() == want.tobytes()
                assert got.strides == want.strides


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


def test_make_tangent_validates():
    rng = oracles.rng_for(4)
    X = make_oblique(oracles.random_unit_columns(rng, 5, 2))
    D = oracles.random_tangent(rng, X.data)
    t = make_tangent(X, D)
    assert np.array_equal(t.data, D)
    with pytest.raises(NotTangent):
        make_tangent(X, D + 0.1)


def test_project_tangent_T_matches_oracle():
    # projection onto the support-constrained tangent cone, column by column
    rng = oracles.rng_for(5)
    X = make_oblique(oracles.random_feasible(rng, 4, 2))
    D = rng.standard_normal((4, 2))
    got = project_tangent_T(X, D).data
    want = np.column_stack([
        oracles.slice_projection_oracle(X.data[:, j], X.data[:, j] + D[:, j])
        - X.data[:, j]
        for j in range(2)
    ])
    assert np.allclose(got, want, atol=1e-10)


def test_project_tangent_T_survives_cancellation():
    # shifting x_j + d_j along x_j leaves the slice projection unchanged, but
    # a shift of 1e7 cancels in max(c - lambda x, 0) and leaves a radial
    # residue x_j^T d_j far above the build tolerance unless it is removed
    rng = oracles.rng_for(6)
    X = make_oblique(oracles.random_unit_columns(rng, 100, 3,
                                                 strictly_positive=True))
    G = rng.standard_normal((100, 3))
    got = project_tangent_T(X, G + 1e7 * X.data).data
    want = project_tangent_T(X, G).data
    assert np.abs(np.einsum("ij,ij->j", X.data, got)).max() <= 1e-10
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
    rng = oracles.rng_for(60)
    for order_a, order_b in [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C")]:
        A = np.asarray(rng.standard_normal(shape) * 1e3, order=order_a)
        B = np.asarray(rng.standard_normal(shape), order=order_b)
        assert inner(A, B) == float(np.tensordot(A, B))
        assert inner(A, A) == float(np.tensordot(A, A))


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
