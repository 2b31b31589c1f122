"""Application-level tests: instance generators, objectives, metrics, solvers.

Gradients and Hessians of the two factorization objectives are checked
against central differences; the clipped normal-equations update is checked
against a least-squares oracle; metric functions are pinned on hand-sized
examples where the answer is computable by inspection.
"""
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from penorth import io as pio
from penorth import driver, make_context, make_oblique, problems
from penorth.errors import (BadLabels, BadShape, NotFeasible, ZeroColumn)
from penorth.manifold import project_oblique_plus, project_orthogonal_group
from penorth.problems import (KindicatorsInstance, KindicatorsModel,
                              KindicatorsObjective, LinearObjective,
                              OnmfInstance, OnmfQuadObjective, OpnmfObjective,
                              ProjectionInstance, ScaledLinearPenalty,
                              TargetDistanceObjective,
                              _uniqueness_hypothesis, clustering_metrics,
                              drop_zero_columns, gap, gen_kindicators,
                              gen_onmf, gen_projection, kindicators_solve,
                              onmf_gauss_newton_Y, resi, solve_onmf,
                              solve_projection, svd_init)
from penorth.rounding import feasibility_violation

import oracles

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# --------------------------------------------------------------------------
# nearest-feasible-point instances


def test_gen_projection_construction_identity():
    inst = gen_projection(8, 3, xi=0.5, seed=11)
    assert np.array_equal(inst.C, inst.X_star @ inst.L.T)
    assert feasibility_violation(inst.X_star) <= 1e-12
    assert inst.hypothesis_ok  # xi < 1 certifies uniqueness
    assert inst.xi == 0.5 and inst.seed == 11


@pytest.mark.parametrize("n,k,seed", [(60, 4, 0), (500, 10, 3), (5000, 20, 4)])
def test_gen_projection_target_is_column_major(n, k, seed):
    # the layout penorth.io reads a target in, so solve_projection holds the
    # generator's own array; the entries are those of the row-major product
    inst = gen_projection(n, k, xi=0.5, seed=seed)
    assert inst.C.flags.f_contiguous
    assert np.array_equal(inst.C, inst.X_star @ inst.L.T)
    assert np.asarray(inst.C, dtype=float, order="F") is inst.C


def test_gen_projection_deterministic():
    a = gen_projection(10, 4, xi=0.3, seed=7)
    b = gen_projection(10, 4, xi=0.3, seed=7)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(a.X_star, b.X_star)
    c = gen_projection(10, 4, xi=0.3, seed=8)
    assert not np.array_equal(a.C, c.C)


def test_gen_projection_rejects_negative_xi():
    with pytest.raises(BadShape):
        gen_projection(5, 2, xi=-0.1, seed=0)


@pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("gen", [
    lambda level: gen_projection(6, 2, level, 0),
    lambda level: gen_onmf(6, 4, 2, level, 0),
    lambda level: gen_kindicators(20, 2, level, 1),
], ids=["projection", "onmf", "kindicators"])
def test_generators_reject_noise_that_is_not_finite_and_nonnegative(gen, level):
    # NaN fails every comparison, so a sign test alone lets it through
    with pytest.raises(BadShape, match="must be finite and nonnegative"):
        gen(level)


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", True, None])
@pytest.mark.parametrize("gen", [
    lambda seed: gen_projection(6, 2, 0.5, seed),
    lambda seed: gen_onmf(6, 4, 2, 0.1, seed),
    lambda seed: gen_kindicators(20, 2, 0.1, seed),
], ids=["projection", "onmf", "kindicators"])
def test_generators_reject_a_seed_that_is_not_a_nonnegative_integer(gen, seed):
    with pytest.raises(BadShape, match="seed must be a nonnegative integer"):
        gen(seed)


def test_generators_take_numpy_integer_seeds():
    a, b = gen_projection(6, 2, 0.5, 7), gen_projection(6, 2, 0.5, np.int64(7))
    assert np.array_equal(a.C, b.C)


@pytest.mark.parametrize("r", [0, -1])
def test_gen_onmf_rejects_empty_data(r):
    with pytest.raises(BadShape, match="r >= 1"):
        gen_onmf(6, r, 2, 0.0, 0)


def test_uniqueness_hypothesis_flags_dominated_diagonal():
    assert _uniqueness_hypothesis(np.array([[2.0, 0.5], [0.5, 3.0]]))
    # off-diagonal 2 > sqrt(1*1): planted point no longer certified
    assert not _uniqueness_hypothesis(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not _uniqueness_hypothesis(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_gap_zero_at_reference_and_guards_degenerate():
    inst = gen_projection(6, 2, xi=0.2, seed=3)
    assert gap(inst.X_star, inst.X_star, inst.C) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ZeroColumn):
        gap(inst.X_star, inst.X_star, inst.X_star)


def test_solve_projection_recovers_planted_point():
    # L = [[2, .5], [.5, 3]] on the identity pattern: C is hand-checkable
    # and the dominance condition holds, so the planted point is the
    # unique nearest feasible matrix
    Xs = np.zeros((3, 2))
    Xs[0, 0] = Xs[1, 1] = 1.0
    Xs[2, 0] = 0.0
    L = np.array([[2.0, 0.5], [0.5, 3.0]])
    C = Xs @ L.T
    assert np.array_equal(C, np.array([[2.0, 0.5], [0.5, 3.0], [0.0, 0.0]]))
    rep = solve_projection(C, X_star=Xs)
    assert rep.feasibility <= 1e-12
    assert rep.extra["gap"] <= 1e-8
    assert np.linalg.norm(rep.final - Xs) <= 1e-6


def test_solve_projection_on_generated_instance():
    inst = gen_projection(12, 3, xi=0.5, seed=21)
    rep = solve_projection(inst.C, X_star=inst.X_star)
    # the bound certifies the support of the start round(project(C)), so
    # the run stops before any inner solve, with the support the full
    # continuation (to tol_feas, unrefined) rounds to
    assert rep.termination == "settled"
    assert rep.outer_iterations == rep.inner_iterations == 0
    assert rep.history == []
    assert rep.extra["bound_gap"] == 0.0
    assert np.isfinite(rep.kkt_residual)
    full = solve_projection(inst.C, driver.projection_preset(
        do_postprocess=False))
    assert full.termination == "feasibility-tol"
    assert np.array_equal(rep.final > 0, full.final > 0)
    assert rep.extra["gap"] <= 1e-6
    assert rep.feasibility <= 1e-12


def test_solve_projection_holds_one_column_major_target(monkeypatch):
    # penorth.io reads column-major matrices: the solve keeps such a target
    # as it is, copies any other once, and f and every outer model share
    # that one array
    from penorth import problems
    targets = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, C, *args):
                super().__init__(C, *args)
                targets.append(self.C)
        return Recording

    for name in ("ScaledLinearPenalty", "TargetDistanceObjective"):
        monkeypatch.setattr(problems, name, recording(getattr(problems, name)))
    for order in ("F", "C"):
        targets.clear()
        C = np.asarray(gen_projection(12, 3, xi=0.5, seed=21).C, order=order)
        # unrefined, so that the bound does not end the run at its start
        rep = solve_projection(C, driver.projection_preset(
            do_postprocess=False))
        assert len(targets) > rep.outer_iterations > 1
        assert all(T is targets[0] for T in targets)
        assert targets[0].flags.f_contiguous and np.array_equal(targets[0], C)
        assert (targets[0] is C) == (order == "F")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_projection_rejects_non_finite_target(bad):
    C = gen_projection(12, 3, xi=0.5, seed=21).C
    C[4, 1] = bad
    with pytest.raises(BadShape):
        solve_projection(C)


@pytest.mark.parametrize("xi", [0.3, 0.7, 0.95])
def test_solve_projection_metamorphic(xi):
    # ||X||_F^2 = k on the feasible set, so the projection of C is that of
    # any positive multiple of C; relabelling rows or columns of C relabels
    # those of its projection
    for seed in range(8):
        C = gen_projection(200, 5, xi=xi, seed=seed).C
        base = solve_projection(C).final
        for scale in (10.0, 0.01):
            X = solve_projection(scale * C).final
            assert np.array_equal(X.argmax(axis=1), base.argmax(axis=1))
            assert np.abs(X - base).max() <= 1e-12
        rng = oracles.rng_for(100 + seed)
        rows, cols = rng.permutation(200), rng.permutation(5)
        want = base[rows][:, cols]
        X = solve_projection(C[rows][:, cols]).final
        assert np.array_equal(X.argmax(axis=1), want.argmax(axis=1))
        assert np.abs(X - want).max() <= 1e-12


def test_scaled_linear_penalty_grad():
    rng = oracles.rng_for(34)
    ctx = make_context(40, 4)
    C = np.asfortranarray(rng.standard_normal((40, 4)))
    for order in ("F", "C"):
        X = np.asarray(oracles.random_unit_columns(rng, 40, 4), order=order)
        h = ScaledLinearPenalty(C, ctx, 7.0)
        want = (X @ ctx.V) * ctx.V.T - C / 7.0
        assert np.allclose(want, X @ ctx.vvt - C / 7.0, rtol=0, atol=1e-15)
        h.value(X)
        G = h.grad(X)
        # (X V) V^T as one rank-one product and the cached C / sigma give
        # the bits of the formula, in X's layout
        assert G.tobytes() == want.tobytes()
        assert G.flags.f_contiguous == (order == "F")
        # the caller owns the returned array: mutating it changes nothing
        G[:] = 0.0
        assert h.grad(X).tobytes() == want.tobytes()
        # X V is kept for the last array only: another one gets its own
        Y = oracles.random_unit_columns(rng, 40, 4)
        h.value(X)
        assert np.array_equal(h.grad(Y), (Y @ ctx.V) * ctx.V.T - C / 7.0)


def test_scaled_linear_penalty_grad_sums_rank_one_products():
    # a coupling V with r = 2 columns: one rank-one product per column
    rng = oracles.rng_for(35)
    V = np.abs(rng.standard_normal((4, 2)))
    ctx = make_context(40, 4, V=V / np.linalg.norm(V))
    C = rng.standard_normal((40, 4))
    X = oracles.random_unit_columns(rng, 40, 4)
    G = ScaledLinearPenalty(C, ctx, 3.0).grad(X)
    XV = X @ ctx.V
    want = XV[:, :1] * ctx.V[:, 0] + XV[:, 1:] * ctx.V[:, 1] - C / 3.0
    assert np.array_equal(G, want)
    assert np.allclose(G, X @ ctx.vvt - C / 3.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("r", [1, 2])
def test_grad_in_one_array_keeps_the_penalty_bits(r):
    # sizes whose row or column blocks end mid-array, and a row longer than
    # a block: the bits of ScaledLinearPenalty's gradient, in X's layout
    rng = oracles.rng_for(36)
    for n, k in [(20000, 3), (3000, 9), (100, 100)]:
        V = np.abs(rng.standard_normal((k, r))) + 0.1
        ctx = make_context(n, k, V=V / np.linalg.norm(V))
        C = rng.standard_normal((n, k))
        for order in ("C", "F"):
            X = np.asarray(rng.random((n, k)), order=order)
            want = ScaledLinearPenalty(C, ctx, 3.0).grad(X)
            G = problems._grad_in_one_array(C, 3.0, X @ ctx.V, ctx.V, order)
            assert np.array_equal(G, want)
            assert G.flags.f_contiguous == (order == "F")


# --------------------------------------------------------------------------
# factorization objectives


def test_onmf_quad_objective_matches_residual_and_fd():
    rng = oracles.rng_for(31)
    A = rng.random((7, 5))
    Y = rng.random((5, 3))
    f = OnmfQuadObjective(A, Y)
    X = rng.standard_normal((7, 3))
    direct = np.linalg.norm(A - X @ Y.T) ** 2
    assert f.value(X) == pytest.approx(direct, rel=1e-12)
    G_fd = oracles.fd_euclidean_grad(f.value, X)
    assert np.allclose(f.grad(X), G_fd, atol=1e-6)
    for _ in range(4):
        D = rng.standard_normal((7, 3))
        # quadratic: Hessian action is exact against a gradient difference
        h = 1e-3
        hd = (f.grad(X + h * D) - f.grad(X - h * D)) / (2 * h)
        assert np.allclose(f.hess_apply(X, D), hd, atol=1e-8)


def test_onmf_objective_of_a_later_outer_iteration_keeps_its_value_bits(
        monkeypatch):
    # solve_onmf forms ||A||^2 once; an objective its factory builds later
    # gives the value bits of one built from scratch
    built = []

    class Recorded(OnmfQuadObjective):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(problems, "OnmfQuadObjective", Recorded)
    A = gen_onmf(30, 60, 3, 0.1, 4).A
    rep = solve_onmf(A, 3)
    assert rep.outer_iterations >= 2 and len(built) >= 2
    rng = oracles.rng_for(34)
    X = rng.standard_normal((30, 3))
    for q in built[1:]:
        fresh = OnmfQuadObjective(q.A, q.Y)
        assert q.value(X).hex() == fresh.value(X).hex()
        assert q.value(rep.final).hex() == fresh.value(rep.final).hex()


def test_opnmf_objective_fd():
    rng = oracles.rng_for(32)
    A = rng.random((8, 6))
    f = OpnmfObjective(A)
    X = oracles.random_unit_columns(rng, 8, 3)
    assert f.value(X) == pytest.approx(
        np.linalg.norm(A - X @ X.T @ A) ** 2, rel=1e-12)
    G_fd = oracles.fd_euclidean_grad(f.value, X)
    assert np.allclose(f.grad(X), G_fd, atol=1e-6)
    for _ in range(4):
        D = rng.standard_normal((8, 3))
        h = 1e-5
        hd = (f.grad(X + h * D) - f.grad(X - h * D)) / (2 * h)
        assert np.allclose(f.hess_apply(X, D), hd, atol=1e-5)


def test_opnmf_hess_at_matches_per_call_body_bit_for_bit():
    rng = oracles.rng_for(34)
    A = rng.random((40, 15))
    f = OpnmfObjective(A)
    X = oracles.random_unit_columns(rng, 40, 3)
    hess = f.hess_at(X)
    for order in ("C", "F"):
        for _ in range(3):
            D = np.asarray(rng.standard_normal((40, 3)), order=order)
            want = oracles.opnmf_hess_apply(A, X, D)
            for got in (hess(D), f.hess_apply(X, D)):
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()


def test_refine_submatrix_is_data_gram():
    rng = oracles.rng_for(33)
    A = rng.random((9, 4))
    idx = np.array([1, 4, 7])
    # postprocess forms each column's submatrix F[idx] F[idx]^T from the
    # factor, and the projective objective's factor is the data itself
    F = OpnmfObjective(A).refine_quadratic_factor()
    assert np.array_equal(F, A)
    S = F[idx] @ F[idx].T
    assert np.array_equal(S, A[idx] @ A[idx].T)
    assert np.allclose(S, S.T)


def test_refine_linear_direction_signs():
    C = np.arange(6.0).reshape(3, 2)
    # gain matrix points where the objective improves: down the gradient
    assert np.array_equal(LinearObjective(C).refine_linear_C(), -C)
    assert np.array_equal(TargetDistanceObjective(C).refine_linear_C(), C)


# --------------------------------------------------------------------------
# ONMF pieces


def test_gauss_newton_Y_matches_lstsq_oracle():
    rng = oracles.rng_for(41)
    for _ in range(10):
        A = rng.random((10, 6))
        X = oracles.random_unit_columns(rng, 10, 3)
        Y = onmf_gauss_newton_Y(A, X)
        Y_ref = np.maximum(oracles.normal_equations_Y(A, X), 0.0)
        assert np.linalg.norm(Y - Y_ref) <= 1e-10 * max(1.0, np.linalg.norm(Y_ref))


def test_gauss_newton_Y_identity_on_self():
    rng = oracles.rng_for(42)
    X = oracles.random_feasible(rng, 9, 3)
    Y = onmf_gauss_newton_Y(X, X)
    assert np.allclose(Y, np.eye(3), atol=1e-12)


def test_gauss_newton_Y_survives_singular_gram():
    # duplicated column: Gram [[1,1],[1,1]] is singular; the regularized
    # solve must still return a finite clipped update
    x = np.array([[0.6], [0.8], [0.0]])
    X = np.hstack([x, x])
    A = np.random.default_rng(1).random((3, 4))
    Y = onmf_gauss_newton_Y(A, X)
    assert np.isfinite(Y).all() and (Y >= 0).all()


def test_resi_zero_on_exact_factorization():
    rng = oracles.rng_for(43)
    B = oracles.random_feasible(rng, 12, 4)
    A = B @ rng.random((4, 7))
    assert resi(A, B) <= 1e-12
    with pytest.raises(NotFeasible):
        resi(A, np.full((12, 4), 1.0 / np.sqrt(12)))
    # a NaN violation fails every comparison; it is not a feasible point
    with pytest.raises(NotFeasible):
        resi(A, np.full((12, 4), np.nan))


def test_gen_onmf_planted_basis_spans_clean_data():
    inst = gen_onmf(20, 9, 3, xi=0.0, seed=51)
    assert np.linalg.norm(inst.A) == pytest.approx(1.0)
    assert resi(inst.A, inst.B) <= 1e-12
    assert np.array_equal(inst.labels, np.argmax(inst.B, axis=1))
    noisy = gen_onmf(20, 9, 3, xi=0.1, seed=51)
    assert resi(noisy.A, inst.B) > 1e-3  # noise leaves the span
    again = gen_onmf(20, 9, 3, xi=0.1, seed=51)
    assert np.array_equal(noisy.A, again.A)


def test_drop_zero_columns_keeps_rows():
    A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    out = drop_zero_columns(A)
    assert np.array_equal(out, np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]))
    with pytest.raises(BadShape):
        drop_zero_columns(np.zeros((3, 3)))


def test_drop_zero_columns_returns_its_input_when_nothing_is_dropped():
    A = np.asfortranarray(oracles.rng_for(55).random((6, 4)))
    assert drop_zero_columns(A) is A
    A[:, 2] = 0.0
    A[0, 2] = -0.0
    out = drop_zero_columns(A)
    assert out.shape == (6, 3) and out.flags.f_contiguous
    assert np.array_equal(out, A[:, [0, 1, 3]])
    # a NaN column is not a zero column: solve_onmf rejects it later
    A[1, 2] = np.nan
    assert drop_zero_columns(A).shape == (6, 4)


def test_svd_init_feasible_shape_and_guard():
    rng = oracles.rng_for(52)
    A = rng.random((15, 8))
    X0 = svd_init(A, 3)
    assert X0.shape == (15, 3)
    assert (X0 >= 0).all()
    assert np.allclose(np.linalg.norm(X0, axis=0), 1.0)
    with pytest.raises(BadShape):
        svd_init(A, 9)


@pytest.mark.parametrize("shape", [(30, 60), (60, 30), (40, 40)])
def test_svd_init_matches_the_svd_start(shape):
    # A's top-k left singular vectors, read off the smaller Gram matrix's
    # eigenvectors (A V_k for a tall A), give the SVD's start to rounding
    # where the singular values are separated
    rng = oracles.rng_for(970)
    m, k = min(shape), 4
    Q1 = np.linalg.qr(rng.standard_normal((shape[0], m)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((shape[1], m)))[0]
    A = (Q1 * (2.0 - np.arange(m) / m)) @ Q2.T
    U = np.linalg.svd(A, full_matrices=False)[0]
    start = svd_init(A, k)
    assert np.abs(start - project_oblique_plus(np.abs(U[:, :k]))).max() <= 1e-12


@pytest.mark.parametrize("name", ["rank-2 tall", "zero tall", "zero wide"])
def test_svd_init_rank_deficient_start_has_distinct_columns(name):
    # a zero eigenvalue among the top k: no column of the start is lost
    rng = oracles.rng_for(971)
    A = {"rank-2 tall": rng.random((12, 2)) @ rng.random((2, 5)),
         "zero tall": np.zeros((12, 5)), "zero wide": np.zeros((5, 12))}[name]
    X = svd_init(A, 3)
    assert X.shape == (A.shape[0], 3)
    assert np.allclose(np.linalg.norm(X, axis=0), 1.0)
    assert min(np.abs(X[:, i] - X[:, j]).max()
               for i in range(3) for j in range(i)) > 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svd_init_rejects_non_finite_before_factoring(monkeypatch, bad):
    # checked first: a single inf can keep LAPACK's SVD from returning
    def no_factoring(*args, **kwargs):
        raise AssertionError("factored non-finite data")

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_factoring)
    A = oracles.rng_for(972).random((6, 8))
    A[2, 5] = bad
    with pytest.raises(BadShape, match="non-finite"):
        svd_init(A, 2)


def test_solve_onmf_clean_instance_reaches_planted_span():
    inst = gen_onmf(24, 10, 3, xi=0.0, seed=53)
    rep = solve_onmf(inst.A, inst.k)
    assert rep.feasibility <= 1e-12
    assert rep.extra["resi"] <= 1e-8
    pred = np.argmax(rep.final, axis=1)
    m = clustering_metrics(pred, inst.labels, k=inst.k)
    assert m["purity"] == 1.0


def test_solve_onmf_gn_survives_cancelling_tangent_projection():
    # on this instance the tangent-cone projection sees slice inputs near
    # 1e7; the cancellation used to stop the solve with NotTangent
    inst = gen_onmf(100, 200, 3, 0.0, 16005)
    rep = solve_onmf(inst.A, 3, variant="gn")
    assert rep.feasibility <= 1e-12
    assert rep.extra["resi"] <= resi(inst.A, inst.B) + 1e-8


def test_solve_onmf_direct_recovers_every_noise_free_seed():
    # run to its end, the direct variant's first Newton solve used to leave
    # two columns alike on half of these seeds; its QPs now stop on the
    # first point whose support Ky Fan's bound certifies, and every seed
    # ends at its first outer iteration on the planted partition, at f = 0
    for seed in range(1000, 1008):
        inst = gen_onmf(100, 200, 3, 0.0, seed)
        rep = solve_onmf(inst.A, 3, variant="direct")
        assert rep.termination == "settled" and rep.outer_iterations == 1
        assert rep.objective <= 1e-30
        pred = np.argmax(rep.final, axis=1)
        assert clustering_metrics(pred, inst.labels)["nmi"] == 1.0


def test_solve_onmf_recovers_k8_once_the_bound_alone_settles_it():
    # noise-free k = 8: the run holds one support (NMI 0.916) for its first
    # 15 outer iterations, with Ky Fan's gap open at 0.030, and the
    # continuation then moves it on; the bound certifies the planted
    # partition at outer iteration 17. The iterates depend on the BLAS
    # thread count, so the solve runs in a child process on one thread
    # (as perfbench runs it); under two OpenBLAS threads this instance
    # ends at tol_feas with NMI 0.923 instead
    code = textwrap.dedent("""
        import json
        import numpy as np
        from penorth.problems import clustering_metrics, gen_onmf, solve_onmf
        inst = gen_onmf(200, 600, 8, 0.0, 0)
        rep = solve_onmf(inst.A, 8)
        pred = np.argmax(rep.final, axis=1)
        print(json.dumps({
            "termination": rep.termination,
            "outer_iterations": rep.outer_iterations,
            "gap_14": rep.history[14]["bound_gap"],
            "bound_gap": rep.extra["bound_gap"],
            "nmi": clustering_metrics(pred, inst.labels)["nmi"]}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(driver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout.splitlines()[-1])
    assert rep["termination"] == "settled"
    assert rep["outer_iterations"] == 17
    assert rep["gap_14"] > 0.03
    assert abs(rep["bound_gap"]) <= driver.CERTIFY_RTOL
    assert rep["nmi"] == 1.0


def test_solve_onmf_direct_variant_and_bad_variant():
    inst = gen_onmf(18, 8, 2, xi=0.0, seed=54)
    rep = solve_onmf(inst.A, 2, variant="direct")
    assert rep.feasibility <= 1e-12
    assert rep.extra["resi"] <= 1e-6
    with pytest.raises(BadShape):
        solve_onmf(inst.A, 2, variant="nope")


@pytest.mark.parametrize("variant", ["gn", "direct"])
@pytest.mark.parametrize("n, k", [(12, 1), (3, 3)])
def test_solve_onmf_edge_shapes_on_newton_path(variant, n, k):
    # k = 1 has no orthogonality to enforce; with n = k every column of
    # the answer is supported on a single row
    inst = gen_onmf(n, 8, k, xi=0.1, seed=1)
    rep = solve_onmf(inst.A, k, variant=variant)
    assert any(h["solver"] == "newton" for h in rep.history)
    assert rep.feasibility <= 1e-12
    assert feasibility_violation(rep.final) <= 1e-12
    if n == k:  # a permutation matrix
        assert np.isin(rep.final, (0.0, 1.0)).all()
        assert (rep.final.sum(axis=0) == 1.0).all()
        assert (rep.final.sum(axis=1) == 1.0).all()


@pytest.mark.parametrize("seed", [1002, 1008, 2005])
def test_solve_onmf_final_bits_do_not_depend_on_memory_order(tmp_path, seed):
    # exactly recoverable instances whose refined and rounded points once
    # compared equal up to summation order, so that the memory order of A
    # chose the returned point; penorth.io hands back Fortran-ordered arrays
    A = np.ascontiguousarray(gen_onmf(100, 200, 3, xi=0.0, seed=seed).A)
    path = str(tmp_path / "A.mtx")
    pio.write_matrix(path, A)
    A_read = pio.read_matrix(path)
    assert A_read.flags.f_contiguous and not A_read.flags.c_contiguous
    assert np.array_equal(A_read, A)
    final_c = solve_onmf(A, 3).final
    final_f = solve_onmf(A_read, 3).final
    assert final_c.tobytes() == final_f.tobytes()


@pytest.mark.parametrize("variant", ["gn", "direct"])
def test_solve_onmf_rejects_non_matrix_or_non_finite_data(variant):
    A = gen_onmf(18, 8, 2, xi=0.0, seed=54).A
    with pytest.raises(BadShape):
        solve_onmf(A[0], 2, variant=variant)
    A[3, 5] = np.nan
    with pytest.raises(BadShape):
        solve_onmf(A, 2, variant=variant)


# --------------------------------------------------------------------------
# clustering metrics


def test_clustering_metrics_hand_example():
    # two clusters each split evenly across two true classes: purity 1/2,
    # cluster entropy maximal, zero mutual information
    pred = np.array([0, 0, 1, 1])
    true = np.array([0, 1, 0, 1])
    m = clustering_metrics(pred, true)
    assert m["purity"] == pytest.approx(0.5)
    assert m["entropy"] == pytest.approx(1.0)
    assert m["nmi"] == pytest.approx(0.0, abs=1e-12)


def test_clustering_metrics_perfect_and_permuted():
    true = np.array([0, 0, 1, 1, 2, 2, 2])
    m = clustering_metrics(true.copy(), true)
    assert m == {"purity": 1.0, "entropy": pytest.approx(0.0, abs=1e-12),
                 "nmi": pytest.approx(1.0)}
    # +0.0, which a report prints as 0.0, not -0.0
    assert math.copysign(1.0, m["entropy"]) == 1.0
    perm = np.array([2, 0, 1])[true]  # relabeled clusters, same partition
    mp = clustering_metrics(perm, true)
    assert mp["purity"] == 1.0
    assert mp["nmi"] == pytest.approx(1.0)


def nested_loop_nmi(pred, true):
    """The NMI as a plain sum of p_ij log2(p_ij / (p_i p_j)) over the
    contingency table's cells in row-major order: a reference whose last
    bits follow the numbering of the clusters."""
    table = np.zeros((true.max() + 1, pred.max() + 1))
    np.add.at(table, (true, pred), 1.0)
    n = table.sum()

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    sizes = table.sum(axis=0)
    mi = 0.0
    for i, j in itertools.product(*map(range, table.shape)):
        if table[i, j] > 0:
            mi += (table[i, j] / n) * np.log2(
                n * table[i, j] / (table[i].sum() * sizes[j]))
    return mi / max(entropy(table.sum(axis=1) / n), entropy(sizes / n))


def test_clustering_metrics_nmi_ignores_cluster_numbering():
    # 200 random partitions of 60 rows into k = 5 clusters, every fourth a
    # relabelling of the true one and every fourth but one the true one with
    # a fifth of its rows redrawn: each of the 120 relabellings of the
    # predicted clusters gives one NMI, exactly 1 where the partition is the
    # true one, and within 5e-16 of the nested-loop formula's
    rng = oracles.rng_for(76)
    perms = [np.array(perm) for perm in itertools.permutations(range(5))]
    for trial in range(200):
        true = rng.integers(0, 5, 60)
        pred = rng.integers(0, 5, 60)
        if trial % 4 == 0:
            pred = perms[trial % 120][true]
        elif trial % 4 == 1:
            pred = true.copy()
            redraw = rng.random(60) < 0.2
            pred[redraw] = rng.integers(0, 5, redraw.sum())
        nmi = {clustering_metrics(perm[pred], true)["nmi"] for perm in perms}
        assert len(nmi) == 1
        (value,) = nmi
        if trial % 4 == 0:
            assert value == 1.0
        assert abs(value - nested_loop_nmi(pred, true)) <= 5e-16
        assert 0.0 <= value <= 1.0


def test_clustering_metrics_entropy_ignores_cluster_numbering():
    # the entropy of 40 random partitions of 60 rows into k = 5 clusters
    # takes one value over the 120 relabellings of the predicted clusters;
    # it is H(true | pred) / log2(k), which exceeds 1 when there are more
    # true classes than k
    rng = oracles.rng_for(77)
    perms = [np.array(perm) for perm in itertools.permutations(range(5))]
    for _ in range(40):
        true = rng.integers(0, 5, 60)
        pred = rng.integers(0, 5, 60)
        assert len({clustering_metrics(perm[pred], true)["entropy"]
                    for perm in perms}) == 1
    m = clustering_metrics(np.array([0, 0, 0, 0, 1, 1, 1, 1]),
                           np.array([0, 1, 2, 3, 0, 1, 2, 3]))
    assert m["entropy"] == 2.0


def test_clustering_metrics_rejects_bad_labels():
    with pytest.raises(BadLabels):
        clustering_metrics(np.array([0.5, 1.0]), np.array([0, 1]))
    with pytest.raises(BadLabels):
        clustering_metrics(np.array([0, -1]), np.array([0, 1]))
    with pytest.raises(BadLabels):
        clustering_metrics(np.array([0, 1, 1]), np.array([0, 1]))
    with pytest.raises(BadLabels):
        clustering_metrics(np.array([], dtype=int), np.array([], dtype=int))


# --------------------------------------------------------------------------
# K-indicators


def test_gen_kindicators_orthonormal_and_recoverable():
    inst = gen_kindicators(30, 4, noise=0.0, seed=61)
    U = inst.U
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-12)
    # noiseless: the feature rows point exactly at the planted column
    assert np.array_equal(np.argmax(np.abs(U), axis=1), inst.labels)
    assert np.unique(inst.labels).size == 4
    again = gen_kindicators(30, 4, noise=0.0, seed=61)
    assert np.array_equal(U, again.U)


@pytest.mark.parametrize("n, k", [(3, 5), (4, 0), (4, -1)])
def test_gen_kindicators_rejects_impossible_shapes(n, k):
    # with n < k no draw of n labels covers all k clusters; the label loop
    # would never stop
    with pytest.raises(BadShape, match="n >= k >= 1"):
        gen_kindicators(n, k, noise=0.1, seed=0)


def test_kindicators_solve_recovers_planted_clusters():
    inst = gen_kindicators(40, 3, noise=0.1, seed=62)
    rep = kindicators_solve(inst.U)
    m = clustering_metrics(rep.extra["labels"], inst.labels, k=3)
    assert m["purity"] == 1.0
    assert m["nmi"] == pytest.approx(1.0)
    # both blocks stayed on their constraint sets the whole run
    assert rep.extra["max_iterate_dev"] <= 1e-12
    assert rep.feasibility <= 1e-12
    assert rep.termination == "feasibility-tol"


# the three instances other tests solve, then four noisier small ones
KINDICATORS_CASES = [(40, 3, 0.1, 62), (500, 10, 0.1, 0), (25, 3, 0.1, 17),
                     (200, 5, 0.3, 101), (250, 6, 0.5, 102),
                     (300, 4, 0.7, 103), (220, 8, 0.9, 104)]


@pytest.mark.parametrize("n,k,noise,seed", KINDICATORS_CASES)
def test_kindicators_solve_matches_alternating_reference(n, k, noise, seed):
    U = gen_kindicators(n, k, noise, seed).U
    ref = oracles.kindicators_reference(U)
    rep = kindicators_solve(U)
    assert np.array_equal(rep.final, ref["final"])
    assert np.array_equal(rep.extra["labels"], ref["labels"])
    assert np.array_equal(rep.extra["X_preround"], ref["X_preround"])
    assert np.array_equal(rep.extra["Y"], ref["Y"])
    assert rep.objective == ref["objective"]
    assert rep.zeta == ref["zeta"]
    assert rep.kkt_residual == ref["kkt_residual"]
    assert rep.outer_iterations == ref["outer_iterations"]
    assert rep.inner_iterations == ref["inner_iterations"]
    assert rep.termination == ref["termination"]
    assert ([h["anchored"] for h in rep.history]
            == [h["anchored"] for h in ref["history"]])
    assert ([h["inner_iterations"] for h in rep.history]
            == [h["inner_iterations"] for h in ref["history"]])


def kindicators_rule_off(monkeypatch, U):
    """kindicators_solve with the driver's give-up test never armed."""
    solve = driver.gradient_projection_solve

    def unarmed(*args, give_up, **kwargs):
        return solve(*args, give_up=None, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(driver, "gradient_projection_solve", unarmed)
        return kindicators_solve(U)


def assert_same_answer(rep, full):
    assert np.array_equal(rep.final, full.final)
    assert np.array_equal(rep.extra["labels"], full.extra["labels"])
    for field in ("objective", "zeta", "kkt_residual", "outer_iterations",
                  "termination"):
        assert getattr(rep, field) == getattr(full, field), field


def test_kindicators_abandons_a_solve_the_next_iteration_discards(
        monkeypatch):
    # the first solve stops at the first iterate headed for the discard,
    # the second starts from the anchor as before, and the answer is the same
    U = gen_kindicators(3000, 30, 0.3, 0).U
    rep = kindicators_solve(U)
    full = kindicators_rule_off(monkeypatch, U)
    assert [h["inner_iterations"] for h in full.history] == [27, 4]
    assert [h["inner_iterations"] for h in rep.history] == [4, 4]
    first, second = rep.history
    assert first["inner_flags"] == ["Abandoned"]
    assert second["anchored"] and second["inner_flags"] == []
    assert rep.flags == full.flags == []
    assert_same_answer(rep, full)


# off the --kindicators-grid (scripts/bit_identity.py) in size and seed:
# whether the driver abandons the first solve, which it then discards
HELD_OUT_KINDICATORS = [(1000, 30, 0.4, 3, True), (1000, 30, 0.4, 5, True),
                        (1000, 30, 0.2, 4, False), (600, 20, 0.4, 4, False),
                        (500, 5, 1.0, 3, False)]


@pytest.mark.parametrize("n,k,noise,seed,abandons", HELD_OUT_KINDICATORS)
def test_kindicators_give_up_is_exact_off_the_grid(monkeypatch, n, k, noise,
                                                   seed, abandons):
    U = gen_kindicators(n, k, noise, seed).U
    held = []  # per projected-gradient solve, whether the test ever held
    solve = driver.gradient_projection_solve

    def watched_solve(*args, give_up, **kwargs):
        held.append(False)

        def watched(X, fX):
            held[-1] = held[-1] or give_up(X, fX)
            return held[-1]
        return solve(*args, give_up=None if give_up is None else watched,
                     **kwargs)

    with monkeypatch.context() as m:
        m.setattr(driver, "gradient_projection_solve", watched_solve)
        rep = kindicators_solve(U)
    full = kindicators_rule_off(monkeypatch, U)
    assert_same_answer(rep, full)
    # under "start" a solve is discarded exactly when the next outer
    # iteration anchors; the test held on those solves only
    discarded = [h["anchored"] for h in rep.history[1:]] + [False]
    assert held == [h["inner_flags"] == ["Abandoned"] for h in rep.history]
    assert not any(h and not d for h, d in zip(held, discarded))
    assert held[0] == abandons
    if abandons:
        assert rep.inner_iterations < full.inner_iterations


def test_kindicators_keeps_a_solve_the_rule_comes_close_to(monkeypatch):
    # a solve the driver keeps, on which parts of the give-up test hold but
    # never together: h is at most its start value on the first 7 iterates
    # only, and the next model would anchor on 303 in a row after them. The
    # whole test never holds, and a test that never holds leaves the loop's
    # bits as they were (test_subsolvers.py)
    held = []
    solve = driver.gradient_projection_solve

    def watched_solve(*args, give_up, **kwargs):
        def watched(X, fX):
            held.append(give_up(X, fX))
            return held[-1]
        return solve(*args, give_up=watched, **kwargs)

    monkeypatch.setattr(driver, "gradient_projection_solve", watched_solve)
    rep = kindicators_solve(gen_kindicators(1000, 10, 0.6, 1).U)
    assert (rep.outer_iterations, rep.inner_iterations) == (1, 311)
    assert rep.history[0]["inner_flags"] == []
    # asked on every iterate but the last, which met the tolerance
    assert len(held) == 310 and not any(held)


def kindicators_point(seed, n=8, k=3):
    U = gen_kindicators(n, k, 0.5, seed).U
    X = oracles.random_unit_columns(oracles.rng_for(seed), n, k,
                                    strictly_positive=True)
    # the nuclear norm is differentiable where U^T X is nonsingular
    assert np.linalg.svd(U.T @ X, compute_uv=False).min() > 1e-3
    return U, X


def test_kindicators_derivatives_match_finite_differences():
    U, X = kindicators_point(64)
    f = KindicatorsObjective(U)
    h = KindicatorsModel(f, make_context(*X.shape), sigma=3.0)
    for obj in (f, h):
        G = oracles.fd_euclidean_grad(obj.value, X)
        assert np.allclose(obj.grad(X), G, atol=1e-7), type(obj).__name__


def test_kindicators_kept_targets_match_fresh_objects():
    U, X1 = kindicators_point(65)
    _, X2 = kindicators_point(66)
    ctx = make_context(*X1.shape)
    f = KindicatorsObjective(U)
    h = KindicatorsModel(f, ctx, sigma=3.0)
    for X in (X1, X2, X1):
        fresh_f = KindicatorsObjective(U)
        fresh_h = KindicatorsModel(KindicatorsObjective(U), ctx, sigma=3.0)
        assert h.value(X) == fresh_h.value(X)
        assert np.array_equal(h.grad(X), fresh_h.grad(X))
        assert f.value(X) == fresh_f.value(X)
        assert np.array_equal(f.grad(X), fresh_f.grad(X))
    # the model at a point is the scaled linear penalty at its target
    lin = ScaledLinearPenalty(f.target(X2), ctx, 3.0)
    assert h.value(X2) == lin.value(X2)
    assert np.array_equal(h.grad(X2), lin.grad(X2))


def test_kindicators_model_forms_x_v_once_per_point(monkeypatch):
    # value then grad at one point share one X V, and the model holds no
    # iterate: a point the caller drops is freed
    formed = []
    xv = ScaledLinearPenalty._xv

    def counted(self, X):
        if X is not self._X:
            formed.append(id(X))
        return xv(self, X)

    monkeypatch.setattr(ScaledLinearPenalty, "_xv", counted)
    U, X1 = kindicators_point(67)
    _, X2 = kindicators_point(68)
    ctx = make_context(*X1.shape)
    h = KindicatorsModel(KindicatorsObjective(U), ctx, sigma=3.0)
    for X in (X1, X1, X2):
        lin = ScaledLinearPenalty(h.f.target(X), ctx, 3.0)
        assert h.value(X) == lin.value(X)
        assert np.array_equal(h.grad(X), lin.grad(X))
    # the model forms X1 V once over both visits and X2 V once; each fresh
    # lin forms its own
    assert formed == [id(X1), id(X1), id(X1), id(X2), id(X2)]
    h.f = KindicatorsObjective(U)  # the objective no longer keeps X2
    del X, X2, lin
    assert h._last[0]() is None


def test_kindicators_solve_rejects_nonorthonormal():
    rng = oracles.rng_for(63)
    with pytest.raises(BadShape):
        kindicators_solve(rng.random((10, 3)))
    with pytest.raises(BadShape):
        kindicators_solve(np.eye(3)[:, :2][:1])  # n < k


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kindicators_solve_rejects_non_finite_U(bad):
    U = gen_kindicators(20, 3, 0.1, 1).U
    U[4, 1] = bad
    with pytest.raises(BadShape, match="U contains non-finite entries"):
        kindicators_solve(U)
    # an all-NaN U fails every comparison, the orthonormality test included
    with pytest.raises(BadShape, match="U contains non-finite entries"):
        kindicators_solve(np.full((20, 3), bad))


@pytest.mark.parametrize("n,k", [(30, 3), (5000, 20)])  # both sides of 256 KiB
@pytest.mark.parametrize("order", ["C", "F"])
def test_kindicators_target_takes_the_layout_rule(n, k, order):
    # U Y is formed in manifold._order(X), the iterate's layout, with the
    # bits of the product
    U = np.asarray(gen_kindicators(n, k, 0.3, 1).U, order=order)
    X = np.asarray(oracles.random_unit_columns(oracles.rng_for(n), n, k),
                   order=order)
    T = KindicatorsObjective(U).target(X)
    assert T.flags.f_contiguous == (order == "F")
    assert T.flags.c_contiguous == (order == "C")
    assert np.array_equal(T, U @ project_orthogonal_group(U.T @ X))


@pytest.mark.parametrize("solve,make", [
    (solve_projection, lambda: gen_projection(30, 3, 0.5, 1).C),
    (lambda A: solve_onmf(A, 3, variant="gn"),
     lambda: gen_onmf(40, 60, 3, 0.01, 1).A),
    (lambda A: solve_onmf(A, 3, variant="direct"),
     lambda: gen_onmf(40, 60, 3, 0.01, 1).A),
    (kindicators_solve, lambda: gen_kindicators(40, 3, 0.1, 62).U),
    (kindicators_solve, lambda: gen_kindicators(220, 8, 0.9, 104).U),
    (kindicators_solve, lambda: gen_kindicators(2000, 20, 0.5, 2).U),
], ids=["projection", "onmf-gn", "onmf-direct", "kindicators-40x3",
        "kindicators-220x8", "kindicators-2000x20"])
def test_solves_do_not_depend_on_the_input_layout(solve, make):
    a, b = (solve(np.asarray(make(), order=order)) for order in "CF")
    assert a.final.tobytes() == b.final.tobytes()
    for field in ("objective", "kkt_residual", "outer_iterations",
                  "inner_iterations", "termination"):
        assert getattr(a, field) == getattr(b, field), field
    # repr spells every float exactly, NaN included
    assert repr(a.history) == repr(b.history)
    assert np.array_equal(a.extra.get("labels", []), b.extra.get("labels", []))


# --------------------------------------------------------------------------
# memory of the projected-gradient solves


# the input, the solve, and the bound on its traced peak in n x k arrays of
# doubles: instance 0 of each workload's seed-1 set in the benchmark
# (perfbench/workloads.py), whose peaks README gives. Measured 7.22
# (K-indicators: a new gradient beside the anchor, which is the outer
# iteration's start, the current and the best iterate, the step, the BB
# difference and the Procrustes target; 9.07 while each gradient held a
# C / sigma temporary, each projected step a second result array, the BB
# difference sat beside both gradients and the driver kept the previous
# outer iteration's point) and 3.12 (projection: the bound certifies its
# start, so no outer iteration runs; the peak is the postprocess's
# objective value beside the rounded and the refined point)
SOLVE_MEMORY = {
    "kindicators": (lambda: gen_kindicators(5000, 40, 0.3, seed=1000).U,
                    kindicators_solve, 7.3),
    "projection": (lambda: gen_projection(5000, 20, 0.7, seed=1000).C,
                   solve_projection, 3.2),
}


@pytest.mark.parametrize("problem", sorted(SOLVE_MEMORY))
def test_projected_gradient_solve_memory_is_bounded(problem):
    import tracemalloc
    make, solve, bound = SOLVE_MEMORY[problem]
    M = np.asfortranarray(make())  # the layout penorth.io reads into
    tracemalloc.start()
    try:
        rep = solve(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feasibility_violation(rep.final) <= 1e-8
    assert peak < bound * M.nbytes
