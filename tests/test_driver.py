import itertools

import numpy as np
import pytest

from penorth import driver, make_context, make_oblique
from penorth.driver import (CERTIFY_RTOL, EPS_GRAD_MIN, _ky_fan_top,
                            _linear_bound_gap, _quad_bound_gap, _row_labels,
                            ep4orth_solve, feasible_init, kindicators_preset,
                            onmf_preset, postprocess, projection_preset)
from penorth.errors import (BadShape, EmptyColumnSupport, NotFeasible,
                            ValidationError)
from penorth.manifold import (project_oblique_plus, project_orthogonal_group,
                              stationarity_residual)
from penorth.penalty import PenalizedObjective, zeta
from penorth.problems import (KindicatorsObjective, LinearObjective,
                              OnmfQuadObjective, OpnmfObjective,
                              ScaledLinearPenalty, TargetDistanceObjective,
                              clustering_metrics, gen_kindicators, gen_onmf,
                              gen_projection,
                              kindicators_solve, solve_onmf,
                              solve_projection, svd_init)
from penorth.rounding import feasibility_violation
from penorth.rounding import round as round_point
from penorth.types import DriverConfig, PenaltyParams

import oracles


# --------------------------------------------------------------------------
# penalty schedule


def schedule_run(**cfg):
    """ep4orth_solve on a small projection target with one inner step per
    outer iteration; only an exactly feasible iterate stops it before t_max."""
    C = oracles.rng_for(55).standard_normal((8, 3))
    base = dict(tol_feas=1e-300, max_inner=1, do_postprocess=False)
    base.update(cfg)
    return ep4orth_solve(TargetDistanceObjective(C), make_context(8, 3),
                         DriverConfig(**base))


def test_schedule_advance_grows_sigma_and_decays_eps_grad():
    rep = schedule_run(sigma0=1e-2, gamma2=2.0, eta=0.1, eps_grad0=1e-3,
                       t_max=7, force_solver="gp-fixed")
    sigma = [h["sigma"] for h in rep.history]
    eps_grad = [h["eps_grad"] for h in rep.history]
    assert len(sigma) == 7 and sigma[0] == 1e-2 and eps_grad[0] == 1e-3
    for t in range(6):
        assert sigma[t + 1] == sigma[t] * 2.0
        assert eps_grad[t + 1] == max(0.1 * eps_grad[t], EPS_GRAD_MIN)
    assert eps_grad[-1] == eps_grad[-2] == EPS_GRAD_MIN  # floor holds


def test_schedule_rule_overrides_factor():
    seen = []

    def rule(s2):
        seen.append(s2)
        return 1.0 + s2

    rep = schedule_run(sigma0=1.0, gamma2=5.0, gamma2_rule=rule, eta=0.9,
                       t_max=5, force_solver="gp")
    # the rule sees ||X V||_F^2 of the iterate each outer step returned
    assert [s2 - 1.0 for s2 in seen] == [h["zeta2"] for h in rep.history]
    for t in range(4):
        assert (rep.history[t + 1]["sigma"]
                == rep.history[t]["sigma"] * (1.0 + seen[t]))


def test_schedule_rejects_non_growth():
    with pytest.raises(BadShape, match="growth factor must exceed 1"):
        schedule_run(gamma2_rule=lambda s2: 1.0, t_max=3)


# --------------------------------------------------------------------------
# feasible start


def test_feasible_init_from_hint():
    ctx = make_context(6, 3)
    rng = oracles.rng_for(50)
    hint = rng.standard_normal((6, 3))
    F = feasible_init(ctx, hint=hint)
    assert feasibility_violation(F) <= 1e-14


def test_feasible_init_random_deterministic():
    # without a hint the point comes from the fixed Philox(0) stream
    ctx = make_context(6, 3)
    a = feasible_init(ctx)
    b = feasible_init(ctx)
    assert np.array_equal(a, b)
    rng = np.random.default_rng(np.random.Philox(0))
    want = round_point(project_oblique_plus(rng.random((6, 3))))
    assert np.array_equal(a, want)


# --------------------------------------------------------------------------
# postprocessing of rounded points


def linear_support_optimum(C_gain, mask):
    """Best unit nonnegative column per support for gain matrix C_gain."""
    X = np.zeros_like(C_gain)
    for j in range(C_gain.shape[1]):
        s = mask[:, j]
        c = np.where(s, C_gain[:, j], -np.inf)
        pos = np.where(s, np.maximum(C_gain[:, j], 0.0), 0.0)
        if pos.max() > 0:
            X[:, j] = pos / np.linalg.norm(pos)
        else:
            X[np.argmax(c), j] = 1.0
    return X


def test_postprocess_linear_reaches_support_optimum():
    rng = oracles.rng_for(52)
    C = rng.standard_normal((7, 3))
    f = LinearObjective(C)
    Xr = round_point(oracles.random_feasible(rng, 7, 3))
    out = postprocess(Xr, f)
    want = linear_support_optimum(np.asarray(f.refine_linear_C()), Xr > 0)
    # never worse than the support optimum; equal unless the guard kept Xr
    assert f.value(out) <= f.value(want) + 1e-12
    assert f.value(out) <= f.value(Xr) + 1e-12
    assert feasibility_violation(out) <= 1e-14


def test_postprocess_onmf_quad_reaches_support_optimum():
    # at feasible X, ||A - X Y^T||^2 = ||A||^2 + ||Y||^2 - 2 <A Y, X>, so the
    # refinement is the linear one with gain A Y
    rng = oracles.rng_for(59)
    for _ in range(20):
        A = np.abs(rng.standard_normal((8, 12)))
        f = OnmfQuadObjective(A, rng.random((12, 3)))
        Xr = round_point(oracles.random_feasible(rng, 8, 3))
        out = postprocess(Xr, f)
        want = linear_support_optimum(A @ f.Y, Xr > 0)
        assert np.allclose(out, want, rtol=0, atol=1e-15)
        assert f.value(out) <= f.value(Xr) + 1e-12
        assert feasibility_violation(out) <= 1e-14


def test_postprocess_quadratic_form_improves_or_keeps():
    rng = oracles.rng_for(53)
    A = np.abs(rng.standard_normal((8, 12)))
    Xr = round_point(oracles.random_feasible(rng, 8, 3))
    f = OpnmfObjective(A)
    out = postprocess(Xr, f)
    assert f.value(out) <= f.value(Xr) + 1e-12
    assert feasibility_violation(out) <= 1e-14


def test_postprocess_generic_never_worsens():
    rng = oracles.rng_for(54)
    T = oracles.random_feasible(rng, 6, 2)

    f = TargetDistanceObjective(T)
    f.refine_kind = "generic"  # no refine structure: rounded point returned
    Xr = round_point(oracles.random_unit_columns(rng, 6, 2))
    out = postprocess(Xr, f)
    assert out is Xr
    assert f.value(out) <= f.value(Xr) + 1e-12
    assert feasibility_violation(out) <= 1e-14


def test_postprocess_rejects_empty_column_support():
    bad = np.zeros((3, 2))
    bad[0, 0] = 1.0  # column 1 empty
    with pytest.raises(EmptyColumnSupport):
        postprocess(bad, LinearObjective(np.zeros((3, 2))))


# --------------------------------------------------------------------------
# outer loop


def tiny_linear_instance(seed, n=6, k=2):
    rng = oracles.rng_for(seed)
    Xs = oracles.random_feasible(rng, n, k)
    L = np.diag(rng.uniform(1.0, 2.0, size=k))
    C = Xs @ L.T
    return C, Xs


def test_driver_solves_tiny_projection():
    # unrefined, the continuation runs to tol_feas and rounds to the planted
    # point; refined, the start's support is certified by the bound and the
    # run ends before any inner solve, on the same support
    C, Xs = tiny_linear_instance(55)
    ctx = make_context(*C.shape)
    factory = lambda X, params: ScaledLinearPenalty(C, ctx, params.sigma)
    reps = [ep4orth_solve(TargetDistanceObjective(C), ctx,
                          projection_preset(t_max=100, do_postprocess=post),
                          X0=make_oblique(feasible_init(ctx, hint=C)),
                          inner_factory=factory)
            for post in (False, True)]
    rep, settled = reps
    assert rep.termination == "feasibility-tol"
    assert rep.feasibility <= 1e-12
    assert rep.zeta <= projection_preset().tol_feas
    assert np.allclose(rep.final, Xs, atol=1e-6)
    assert settled.termination == "settled"
    assert settled.outer_iterations == settled.inner_iterations == 0
    assert settled.extra["bound_gap"] <= CERTIFY_RTOL
    assert np.array_equal(settled.final > 0, rep.final > 0)
    assert np.allclose(settled.final, Xs, atol=1e-12)


def test_driver_history_contract():
    C, _ = tiny_linear_instance(56)
    ctx = make_context(*C.shape)
    cfg = projection_preset(t_max=100)
    factory = lambda X, params: ScaledLinearPenalty(C, ctx, params.sigma)
    rep = ep4orth_solve(TargetDistanceObjective(C), ctx, cfg,
                        inner_factory=factory)
    assert len(rep.history) == rep.outer_iterations
    sig_prev = 0.0
    for h in rep.history:
        assert h["sigma"] > sig_prev  # strictly increasing penalty
        sig_prev = h["sigma"]
        assert h["descent_ok"]  # condition (final vs start of the model)
        assert h["h_end"] <= h["h_start"] + 1e-12
    # outer break happened on the feasibility tolerance
    assert rep.history[-1]["zeta2"] <= cfg.tol_feas


def kkt_cases():
    """(report, f, other) of one projection, one ONMF (gn) and one
    K-indicators solve: f is the objective the driver logs the residual
    for, other the residual of K-indicators' second block (0 elsewhere).
    The projection's start is certified by the bound, so it has no
    outer iteration."""
    C = np.asfortranarray(gen_projection(30, 3, 0.5, 1).C)
    yield solve_projection(C), TargetDistanceObjective(C), 0.0
    A = np.asfortranarray(gen_onmf(40, 60, 3, 0.01, 1).A)
    yield solve_onmf(A, 3, variant="gn"), OpnmfObjective(A), 0.0
    U = np.asfortranarray(gen_kindicators(200, 4, 0.3, 1).U)
    rep = kindicators_solve(U)
    Y = rep.extra["Y"]
    GY = 2.0 * (Y - U.T @ rep.extra["X_preround"])
    res_y = float(np.linalg.norm(Y - project_orthogonal_group(Y - GY)))
    yield rep, KindicatorsObjective(U), res_y


def test_driver_kkt_residual_is_the_penalized_objectives():
    # the logged residual is stationarity_residual of PenalizedObjective's
    # gradient at the last sigma, bit for bit: the penalty has one body. A
    # solve the bound ends at its start reports the start's, under sigma0
    lengths = []
    for rep, f, other in kkt_cases():
        X = rep.extra["X_preround"]
        lengths.append(len(rep.history))
        sigma = (rep.history[-1]["sigma"] if rep.history
                 else projection_preset().sigma0)
        want = stationarity_residual(
            X, PenalizedObjective(f, make_context(*X.shape),
                                  PenaltyParams(sigma=sigma)).grad(X))
        if rep.history:
            assert rep.history[-1]["kkt_penalty"] == want
        assert rep.kkt_residual == max(want, other)
    assert lengths[0] == 0 and min(lengths[1:]) > 0


def overlap_start(n, k):
    # all columns identical: the worst possible defect, zeta = k - 1
    x = np.full(n, 1.0 / np.sqrt(n))
    return make_oblique(np.tile(x[:, None], (1, k)))


def anti_anchor_objective(n, k, scale):
    """Linear objective rewarding the fully-overlapped configuration so
    strongly that the feasible anchor never looks attractive below
    penalty level ~scale. This is the pathology the driver's budget and
    stall guards exist for."""
    X0 = overlap_start(n, k)
    return LinearObjective(-scale * X0), X0


def test_driver_termination_max_outer():
    f, X0 = anti_anchor_objective(5, 2, scale=10.0)
    ctx = make_context(5, 2)
    cfg = projection_preset(t_max=2, tol_feas=1e-16, max_inner=5)
    rep = ep4orth_solve(f, ctx, cfg, X0=X0)
    assert rep.outer_iterations == 2
    assert rep.termination == "max-outer"
    # output is still a feasible point: rounding always runs
    assert rep.feasibility <= 1e-12


def test_driver_stalled_when_sigma_explodes():
    f, X0 = anti_anchor_objective(5, 2, scale=1e18)
    ctx = make_context(5, 2)
    cfg = DriverConfig(sigma0=1.0, gamma2=50.0, tol_feas=1e-30,
                       t_max=300, force_solver="gp", max_inner=5)
    rep = ep4orth_solve(f, ctx, cfg, X0=X0)
    assert rep.termination == "stalled"
    assert rep.outer_iterations < 300  # the guard, not the budget, stopped it
    assert rep.feasibility <= 1e-12


# keys every history entry has
HISTORY_KEYS = {"t", "sigma", "eps_grad", "solver", "inner_iterations",
                "kkt_inner", "kkt_penalty", "zeta2", "h_start", "h_end",
                "descent_ok", "anchored", "trials", "inner_flags"}
# ... and, where f has a bound, the certificate's verdict and the support's
# relative gap to the bound
CERTIFIED_SUPPORT_KEYS = {"support_certified", "bound_gap"}


@pytest.mark.parametrize("seed", [0, 1])
def test_driver_settles_on_small_onmf(seed):
    # light noise keeps Ky Fan's bound open (bound_gap about 3e-6), so
    # nothing settles the run: it goes on to tol_feas on the unrefined
    # run's iterates, asks the bound on every outer iteration's support
    # without moving an iterate, and refines the point that run rounds to
    inst = gen_onmf(30, 60, 3, 0.01, seed=seed)
    full = solve_onmf(inst.A, 3, onmf_preset(do_postprocess=False))
    rep = solve_onmf(inst.A, 3)
    assert full.termination == rep.termination == "feasibility-tol"
    assert all(set(h) == HISTORY_KEYS for h in full.history)
    assert "bound_gap" not in full.extra
    assert all(set(h) == HISTORY_KEYS | CERTIFIED_SUPPORT_KEYS
               for h in rep.history)
    assert not any(h["support_certified"] for h in rep.history)
    assert rep.outer_iterations == full.outer_iterations == (117, 129)[seed]
    assert [{key: h[key] for key in HISTORY_KEYS} for h in rep.history] \
        == full.history
    assert np.array_equal(rep.extra["X_rounded"], full.final)
    assert 1e-6 < rep.extra["bound_gap"] < 1e-5
    # the refined point depends on the final support only
    assert rep.extra["resi"] == (0.004984508090648933,
                                 0.005135642617171164)[seed]
    assert rep.extra["resi"] <= full.extra["resi"]
    assert rep.feasibility <= 1e-12
    # the report describes the last iterate before rounding
    assert rep.zeta == rep.history[-1]["zeta2"] <= 1e-8


def partition(labels):
    """labels renamed 0, 1, ... by first occurrence: one array per
    partition of the rows, whatever the column order."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def test_driver_certifies_noise_free_onmf_before_the_row_moves():
    # noise-free, Ky Fan's bound closes on the support of an early Newton
    # iterate of the first outer iteration: the solve stops there and the
    # run with it, on the partition the full continuation (to tol_feas,
    # unrefined) rounds to, in a column order of its own. A quadratic
    # form's start is not asked (module docstring)
    for seed in (0, 1):
        inst = gen_onmf(30, 60, 3, 0.0, seed=seed)
        full = solve_onmf(inst.A, 3, onmf_preset(do_postprocess=False))
        rep = solve_onmf(inst.A, 3)
        assert full.termination == "feasibility-tol"
        assert full.outer_iterations > 1
        assert rep.termination == "settled"
        assert rep.outer_iterations == 1
        assert [h["support_certified"] for h in rep.history] == [True]
        assert rep.history[0]["solver"] == "newton"
        assert rep.history[0]["inner_flags"] == ["Abandoned"]
        assert abs(rep.extra["bound_gap"]) <= CERTIFY_RTOL
        assert np.array_equal(partition(np.argmax(rep.final, axis=1)),
                              partition(np.argmax(full.final, axis=1)))
        assert rep.objective <= 1e-30 and full.objective <= 1e-30
        assert rep.extra["resi"] <= 1e-8


def unhooked_newton(monkeypatch):
    """Hand every Newton solve of the driver no give-up test."""
    inner = driver.newton_solve

    def newton_solve(*args, give_up=None):
        return inner(*args)

    monkeypatch.setattr(driver, "newton_solve", newton_solve)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_driver_stops_the_newton_solve_on_a_certified_support(
        monkeypatch, seed):
    # the solve stops at its first accepted iterate whose support the bound
    # certifies; without the test the solve runs on (seed 2: six more outer
    # iterations) and the run ends on the same partition, objective and
    # residual, in a column order that may differ
    A = gen_onmf(30, 60, 3, 0.0, seed).A
    rep = solve_onmf(A, 3, variant="gn")
    unhooked_newton(monkeypatch)
    off = solve_onmf(A, 3, variant="gn")
    assert rep.termination == off.termination == "settled"
    assert rep.history[-1]["inner_flags"] == ["Abandoned"]
    assert all("Abandoned" not in h["inner_flags"] for h in off.history)
    assert rep.inner_iterations < off.inner_iterations
    assert rep.objective == off.objective
    assert rep.extra["resi"] == off.extra["resi"]
    assert np.array_equal(partition(np.argmax(rep.final, axis=1)),
                          partition(np.argmax(off.final, axis=1)))


def test_driver_certifies_a_direct_onmf_run_before_its_columns_collapse():
    # run to its end, the direct variant's first Newton solve leaves two
    # columns alike, and the run stops at tol_feas with objective 0.0944;
    # an earlier Newton iterate has a support the bound certifies, and the
    # run stops there
    inst = gen_onmf(100, 200, 3, 0.0, 1003)
    rep = solve_onmf(inst.A, 3, variant="direct")
    assert rep.termination == "settled"
    assert rep.outer_iterations == 1
    assert rep.history[0]["inner_flags"] == ["Abandoned"]
    assert rep.history[0]["support_certified"]
    assert rep.objective <= 1e-30
    pred = np.argmax(rep.final, axis=1)
    assert clustering_metrics(pred, inst.labels)["nmi"] == 1.0


class GenericOpnmf(OpnmfObjective):
    """The projective ONMF objective without its closed-form refinement."""

    refine_kind = "generic"


def test_driver_settles_only_with_a_closed_form_refinement():
    # a generic f gets round(X_T) back, so its run never stops early
    inst = gen_onmf(40, 80, 4, 0.0, seed=0)
    ctx = make_context(40, 4)
    X0 = svd_init(inst.A, 4)
    cfg = onmf_preset()
    reps = [ep4orth_solve(f(inst.A), ctx, cfg, X0=X0,
                          X_feas=round_point(X0))
            for f in (OpnmfObjective, GenericOpnmf)]
    assert reps[0].termination == "settled"
    assert all(set(h) == HISTORY_KEYS | CERTIFIED_SUPPORT_KEYS
               for h in reps[0].history)
    assert reps[1].termination == "feasibility-tol"
    assert reps[1].outer_iterations > reps[0].outer_iterations
    assert all(set(h) == HISTORY_KEYS for h in reps[1].history)


def test_driver_settles_by_window_without_a_nonnegative_factor():
    # with a negative entry in the factor (postprocess's |v| then need not
    # attain lambda_max) the quadratic form has no bound, so nothing
    # settles its run: like a generic f's, it goes on to tol_feas, its
    # history entries carry no support keys, and it refines the point the
    # generic run rounds to. The nonnegative run is certified at its first
    # outer iteration, on the partition the generic run ends on
    inst = gen_onmf(40, 80, 4, 0.0, seed=0)
    ctx = make_context(40, 4)
    X0 = svd_init(inst.A, 4)
    cfg = onmf_preset()
    reps = [ep4orth_solve(OpnmfObjective(A), ctx, cfg, X0=X0,
                          X_feas=round_point(X0))
            for A in (inst.A, inst.A - 0.01)]
    generic = [ep4orth_solve(GenericOpnmf(A), ctx, cfg, X0=X0,
                             X_feas=round_point(X0))
               for A in (inst.A, inst.A - 0.01)]
    assert [rep.termination for rep in reps] == ["settled", "feasibility-tol"]
    assert reps[0].history[-1]["support_certified"]
    assert reps[0].outer_iterations == 1
    assert np.array_equal(np.argmax(reps[0].final, axis=1),
                          np.argmax(generic[0].final, axis=1))
    assert "bound_gap" not in reps[1].extra
    assert reps[1].history == generic[1].history
    assert reps[1].outer_iterations == generic[1].outer_iterations == 135
    assert np.array_equal(reps[1].extra["X_rounded"], generic[1].final)
    assert np.array_equal(reps[1].final,
                          postprocess(generic[1].final,
                                      OpnmfObjective(inst.A - 0.01)))


def test_driver_reports_the_bound_gap_only_where_a_bound_exists():
    # a linear f and a quadratic form with a nonnegative factor have a
    # bound; a factor with a negative entry, a generic f, K-indicators and
    # an unrefined run have none
    inst = gen_onmf(40, 80, 4, 0.0, seed=0)
    ctx = make_context(40, 4)
    X0 = svd_init(inst.A, 4)
    cfg = onmf_preset()
    reps = [ep4orth_solve(f, ctx, cfg, X0=X0, X_feas=round_point(X0))
            for f in (OpnmfObjective(inst.A), OpnmfObjective(inst.A - 0.01),
                      GenericOpnmf(inst.A))]
    reps.append(solve_onmf(inst.A, 4, onmf_preset(do_postprocess=False)))
    reps.append(kindicators_solve(gen_kindicators(200, 4, 0.3, 1).U))
    proj = gen_projection(30, 3, 1.5, 0)
    reps.append(solve_projection(proj.C))
    assert [("bound_gap" in rep.extra) for rep in reps] == [
        True, False, False, False, False, True]
    assert abs(reps[0].extra["bound_gap"]) <= CERTIFY_RTOL
    # a heavy-noise projection: a bound, not a certificate
    assert reps[-1].extra["bound_gap"] > CERTIFY_RTOL
    assert reps[-1].termination == "feasibility-tol"
    assert "bound_gap" in reps[-1].to_dict()


def test_driver_never_certifies_coincident_onmf_columns():
    # two columns of the direct variant's iterate nearly coincide, so every
    # row is close to a tie while the row argmax holds. Its support splits a
    # planted cluster and has a bound gap of 0.083, so the bound does not
    # stop the run there: it goes on until a later support closes the bound
    inst = gen_onmf(100, 200, 3, 0.0, 2032)
    rep = solve_onmf(inst.A, 3, variant="direct")
    assert rep.termination == "settled"
    assert rep.history[1]["bound_gap"] > 0.08
    certified = [h["support_certified"] for h in rep.history]
    assert certified == [False] * (len(certified) - 1) + [True]
    assert abs(rep.history[-1]["bound_gap"]) <= CERTIFY_RTOL
    assert rep.objective <= 1e-20
    pred = np.argmax(rep.final, axis=1)
    assert clustering_metrics(pred, inst.labels)["nmi"] == 1.0


def test_driver_feasible_stop_keeps_the_support_keys():
    # a refinable run that stops on tol_feas still records the support of
    # its last iterate, with no certificate asked there; the bookkeeping,
    # the Newton give-up test included, moves no iterate: the run is the
    # unrefinable one's, then refined. The direct variant's columns
    # collapse here, so the bound never closes
    A = np.asfortranarray(gen_onmf(30, 60, 3, 0.0, 23).A)
    rep = solve_onmf(A, 3, variant="direct")
    X0 = svd_init(A, 3)
    bare = ep4orth_solve(GenericOpnmf(A), make_context(30, 3), onmf_preset(),
                         X0=X0, X_feas=round_point(X0))
    assert rep.termination == bare.termination == "feasibility-tol"
    assert rep.outer_iterations == bare.outer_iterations == 220
    assert all(set(h) == HISTORY_KEYS | CERTIFIED_SUPPORT_KEYS
               for h in rep.history)
    assert not rep.history[-1]["support_certified"]
    assert rep.history[-1]["bound_gap"] == rep.extra["bound_gap"] > 0.06
    assert [{key: h[key] for key in HISTORY_KEYS} for h in rep.history] \
        == bare.history
    assert np.array_equal(rep.extra["X_rounded"], bare.final)
    assert np.array_equal(rep.final,
                          postprocess(bare.final, OpnmfObjective(A)))


@pytest.mark.parametrize("solver", ["gp", "newton"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_driver_never_freezes_or_writes_the_callers_arrays(order, solver):
    inst = gen_onmf(20, 10, 3, 0.1, seed=3)
    ctx = make_context(20, 3)
    X0 = np.array(svd_init(inst.A, 3), order=order)
    X_feas = np.array(round_point(X0), order=order)
    keep = [A.copy(order="K") for A in (X0, X_feas)]
    cfg = onmf_preset(force_solver=solver, t_max=5)
    for start in (X0, None):
        rep = ep4orth_solve(OpnmfObjective(inst.A), ctx, cfg, X0=start,
                            X_feas=X_feas)
        assert rep.extra["X_preround"] is not start
        assert rep.extra["X_preround"] is not X_feas
        for A, K in zip((X0, X_feas), keep):
            assert A.flags.writeable
            assert A.tobytes(order="A") == K.tobytes(order="A")


def test_row_support_labels_live_rows_and_sees_ties():
    # _row_labels: the row argmax, the first column on a tie, and -1 for a
    # row with no positive entry, which rounding leaves empty
    X = np.array([[0.8, 0.2], [0.0, 0.0], [0.3, 0.6], [0.5, 0.5]])
    assert _row_labels(X).tolist() == [0, -1, 1, 0]
    assert _row_labels(np.zeros((3, 2))).tolist() == [-1] * 3


def refined_quad_sum(F, labels, k):
    """sum_j lambda_max(F_S F_S^T) over the rows S labelled j, by eigvalsh."""
    return sum(np.linalg.eigvalsh(F[labels == j] @ F[labels == j].T)[-1]
               for j in range(k))


def refined_sum(C, labels):
    """sum_j ||C+_{S_j, j}|| over the rows S_j labelled j, by definition."""
    P = np.maximum(C, 0.0)
    return sum(np.linalg.norm(P[labels == j, j]) for j in range(C.shape[1]))


def labellings(n, k):
    """Every row labelling in {-1, 0, ..., k - 1}^n (-1: the row is in no
    column) that leaves no column empty."""
    for labels in itertools.product(range(-1, k), repeat=n):
        labels = np.array(labels)
        if np.bincount(labels[labels >= 0], minlength=k).all():
            yield labels


def bound_case(seed):
    """A small planted instance: a linear gain C with negative entries and a
    nonnegative factor F with 4 columns. Seeds 0-3 perturb C lightly and
    leave F of rank k (Ky Fan's bound is attained only then), 4-7 perturb
    both heavily."""
    rng = oracles.rng_for(940 + seed)
    n, k = ((8, 2), (6, 3), (7, 2), (5, 3))[seed % 4]
    heavy = seed >= 4
    B = oracles.random_feasible(rng, n, k)
    C = (B * rng.uniform(1.0, 3.0, k)
         + (0.05, 1.0)[heavy] * rng.standard_normal((n, k)))
    F = B @ rng.random((k, 4)) + heavy * rng.random((n, 4))
    assert (C < 0).any() and (F >= 0).all()
    return C, F, k


@pytest.mark.parametrize("seed", range(8))
def test_bounds_match_brute_force(seed):
    # every support of a small instance enumerated: each bound is at least
    # the best refined sum, and a support it certifies attains that best
    C, F, k = bound_case(seed)
    supports = list(labellings(C.shape[0], k))
    linear = [refined_sum(C, labels) for labels in supports]
    quad = [refined_quad_sum(F, labels, k) for labels in supports]
    best_linear, best_quad = max(linear), max(quad)
    top = _ky_fan_top(OpnmfObjective(F), k)
    assert top >= best_quad * (1 - 1e-14)
    certified = [0, 0]
    for labels, lin, qua in zip(supports, linear, quad):
        gap = _linear_bound_gap(C, labels)
        if gap is None:
            # a column whose rows all have C <= 0
            assert not all((C[labels == j, j] > 0).any() for j in range(k))
        else:
            # the bound is lin / (1 - gap)
            assert lin >= (1 - gap) * best_linear - 1e-13 * best_linear
            if gap <= CERTIFY_RTOL:
                assert lin >= best_linear * (1 - 2 * CERTIFY_RTOL)
                certified[0] += 1
        gap = _quad_bound_gap(F, labels, k, top)
        assert abs(top * (1 - gap) - qua) <= 1e-13 * top
        if gap <= CERTIFY_RTOL:
            assert qua >= best_quad * (1 - 2 * CERTIFY_RTOL)
            certified[1] += 1
    # light perturbation: the bounds close on the planted support
    assert (min(certified) > 0) == (seed < 4)


def test_quad_bound_needs_every_column():
    F = oracles.rng_for(932).random((6, 4))
    top = _ky_fan_top(OpnmfObjective(F), 3)
    assert top == pytest.approx(np.sum(np.linalg.svd(F)[1][:3] ** 2),
                                rel=1e-14)
    labels = np.array([0, 1, 1, 0, 1, -1])
    assert _quad_bound_gap(F, labels, 3, top) is None
    # a zero factor: every support is optimal
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert _quad_bound_gap(np.zeros((6, 4)), labels, 3, 0.0) == 0.0


@pytest.mark.parametrize("shape", [(30, 60), (60, 30)])
def test_ky_fan_top_reads_the_kept_spectrum(shape):
    # the eigenvalues solve_onmf's start reads give the bound that
    # eigvalsh of the smaller Gram matrix gives
    A = oracles.rng_for(933).random(shape)
    f = OpnmfObjective(A)
    gram = A @ A.T if shape[0] <= shape[1] else A.T @ A
    assert _ky_fan_top(f, 3) == pytest.approx(
        np.linalg.eigvalsh(gram)[-3:].sum(), rel=1e-12)
    assert f.refine_quadratic_spectrum() is f.refine_quadratic_spectrum()


@pytest.mark.parametrize("variant", ["gn", "direct"])
@pytest.mark.parametrize("n, r", [(40, 80), (80, 40)])
def test_solve_onmf_decomposes_the_data_once(monkeypatch, variant, n, r):
    # the start and Ky Fan's bound share one eigendecomposition of the
    # smaller Gram matrix, and nothing takes an SVD of the data
    A = np.asfortranarray(gen_onmf(n, r, 3, 0.0, seed=4).A)
    gram = A @ A.T if n <= r else A.T @ A
    calls = {"svd": 0, "gram": 0}
    real = {name: getattr(np.linalg, name)
            for name in ("svd", "eigh", "eigvalsh")}

    def counted(name):
        def call(M, *args, **kwargs):
            if name == "svd":
                calls["svd"] += 1
            elif M.shape == gram.shape and np.allclose(M, gram):
                calls["gram"] += 1
            return real[name](M, *args, **kwargs)
        return call

    for name in real:
        monkeypatch.setattr(np.linalg, name, counted(name))
    rep = solve_onmf(A, 3, variant=variant)
    assert calls == {"svd": 0, "gram": 1}
    assert "bound_gap" in rep.extra


def test_driver_settles_a_linear_f_only_on_the_bound(monkeypatch):
    # the bound certifies this instance's start, so the default run has no
    # outer iteration. With the bound off, as for a support it cannot bound,
    # nothing else stops a linear f early: the run goes on to tol_feas on
    # the unrefined run's iterates, and refines to the bounded run's point
    inst = gen_projection(500, 10, 0.7, seed=3)
    full = solve_projection(inst.C, projection_preset(do_postprocess=False))
    bounded = solve_projection(inst.C, X_star=inst.X_star)
    monkeypatch.setattr(driver, "_linear_bound_gap", lambda C, labels: None)
    rep = solve_projection(inst.C, X_star=inst.X_star)
    assert full.termination == "feasibility-tol"
    assert bounded.termination == "settled"
    assert bounded.outer_iterations == 0
    assert bounded.extra["bound_gap"] <= CERTIFY_RTOL
    assert np.array_equal(bounded.final > 0, full.final > 0)
    assert "bound_gap" not in rep.extra
    assert all(set(h) == HISTORY_KEYS for h in full.history)
    assert rep.termination == "feasibility-tol"
    assert all(set(h) == HISTORY_KEYS | CERTIFIED_SUPPORT_KEYS
               for h in rep.history)
    assert not any(h["support_certified"] for h in rep.history)
    assert [{key: h[key] for key in HISTORY_KEYS} for h in rep.history] \
        == full.history
    assert np.array_equal(rep.final, bounded.final)
    assert rep.extra["gap"] <= 1e-12
    assert rep.feasibility <= 1e-12


def test_driver_history_carries_each_supports_bound_gap(monkeypatch):
    # heavy noise: the support moves between outer iterations and the bound
    # stays open, so no support is certified and the run ends at tol_feas.
    # Each entry carries its own support's gap, as the bound gives it (None
    # while some column's s_j is 0, as in the first three here), and the
    # last one is the report's
    C = np.asfortranarray(gen_projection(40, 4, 1.5, seed=0).C)
    seen = []

    def recorded(X):
        seen.append(_row_labels(X))
        return seen[-1]

    monkeypatch.setattr(driver, "_row_labels", recorded)
    rep = solve_projection(C)
    assert rep.termination == "feasibility-tol"
    assert not any(h["support_certified"] for h in rep.history)
    # the start's support, then one per outer iteration, then the final's
    assert len(seen) == len(rep.history) + 2
    gaps = [h["bound_gap"] for h in rep.history]
    assert gaps == [_linear_bound_gap(C, labels) for labels in seen[1:-1]]
    assert gaps[-1] == rep.extra["bound_gap"]
    assert gaps[:3] == [None] * 3 and gaps[-1] > CERTIFY_RTOL


def test_driver_does_not_certify_a_support_with_an_improving_move():
    # heavy noise: the run holds its supports for several outer iterations,
    # but none attains the global bound (a row move improves each), so no
    # support is certified and the run ends at tol_feas
    inst = gen_projection(40, 4, 1.5, seed=0)
    rep = solve_projection(inst.C)
    assert not any(h.get("support_certified") for h in rep.history)
    assert rep.history[-1]["bound_gap"] > CERTIFY_RTOL
    assert rep.termination == "feasibility-tol"


def fallback_rewarding_setup(n=6, k=2):
    """Objective that rewards the feasible fallback's pattern, started from
    the fully-overlapped point. With a starved inner budget the warm run
    cannot reach the fallback's value, so the fallback rescue must fire."""
    data = np.zeros((n, k))
    for j in range(k):
        data[j, j] = 1.0
    return LinearObjective(-5.0 * data), data, overlap_start(n, k)


def test_driver_result_anchor_rescues_starved_run():
    f, Xf, X0 = fallback_rewarding_setup()
    ctx = make_context(6, 2)
    cfg = DriverConfig(sigma0=1.0, gamma2=5.0, tol_feas=1e-8, t_max=50,
                       force_solver="gp", max_inner=1, anchor="result")
    rep = ep4orth_solve(f, ctx, cfg, X0=X0, X_feas=Xf)
    assert any(h["anchored"] for h in rep.history)
    fired = next(h for h in rep.history if h["anchored"])
    # the accepted value never exceeds the fallback's, even on rescue
    assert fired["h_end"] <= fired["h_start"] + 1e-12
    assert rep.termination == "feasibility-tol"
    assert rep.objective <= f.value(Xf) + 1e-12


def test_driver_start_anchor_resets_before_solving():
    f, Xf, X0 = fallback_rewarding_setup()
    ctx = make_context(6, 2)
    cfg = DriverConfig(sigma0=1.0, gamma2=5.0, tol_feas=1e-8, t_max=50,
                       force_solver="gp", max_inner=2, anchor="start")
    rep = ep4orth_solve(f, ctx, cfg, X0=X0, X_feas=Xf)
    first = rep.history[0]
    assert first["anchored"]
    # reset happens before the solve: the recorded start is the fallback's
    assert first["h_start"] == pytest.approx(f.value(Xf), abs=1e-12)
    assert rep.termination == "feasibility-tol"


def test_driver_rejects_unknown_anchor_policy():
    with pytest.raises(ValidationError):
        DriverConfig(anchor="sometimes")


@pytest.mark.parametrize("with_start", [True, False])
def test_driver_checks_the_fallback_shape_at_entry(with_start):
    C = oracles.rng_for(57).standard_normal((20, 3))
    ctx = make_context(20, 3)
    X_feas = feasible_init(make_context(21, 3), hint=np.vstack([C, C[:1]]))
    X0 = make_oblique(feasible_init(ctx, hint=C)) if with_start else None
    with pytest.raises(BadShape, match=r"feasible fallback shape \(21, 3\)"):
        ep4orth_solve(TargetDistanceObjective(C), ctx, X0=X0, X_feas=X_feas)


def test_driver_rejects_an_infeasible_fallback():
    C = oracles.rng_for(58).standard_normal((6, 2))
    ctx = make_context(6, 2)
    X_feas = overlap_start(6, 2)  # unit columns, not orthogonal
    with pytest.raises(NotFeasible, match="feasible fallback"):
        ep4orth_solve(TargetDistanceObjective(C), ctx, X_feas=X_feas)


def test_driver_force_solver_paths():
    C, _ = tiny_linear_instance(59)
    ctx = make_context(*C.shape)
    f = TargetDistanceObjective(C)
    for solver in ("gp", "newton"):
        # unrefined: no certificate ends the run before tol_feas
        cfg = DriverConfig(sigma0=0.1, gamma2=5.0, tol_feas=1e-8,
                           t_max=60, force_solver=solver, max_inner=300,
                           do_postprocess=False)
        rep = ep4orth_solve(f, ctx, cfg)
        assert rep.zeta <= 1e-8, solver
        assert all(h["solver"] == solver for h in rep.history)


def test_driver_switch_rule_picks_solver_by_defect():
    C, _ = tiny_linear_instance(60)
    ctx = make_context(*C.shape)
    f = TargetDistanceObjective(C)
    # huge switch threshold: defect always below it, so second order runs
    cfg = DriverConfig(sigma0=0.1, gamma2=5.0, tol_feas=1e-8, t_max=60,
                       zeta_switch=1e6, max_inner=300)
    rep = ep4orth_solve(f, ctx, cfg)
    assert all(h["solver"] == "newton" for h in rep.history)
    # zero threshold with an infeasible start: defect routes the first
    # round to gradient projection
    cfg2 = DriverConfig(sigma0=0.1, gamma2=5.0, tol_feas=1e-8, t_max=60,
                        zeta_switch=0.0, max_inner=300)
    rep2 = ep4orth_solve(f, ctx, cfg2, X0=overlap_start(*C.shape))
    assert rep2.history[0]["solver"] == "gp"


def test_driver_factory_called_every_outer_iteration():
    C, _ = tiny_linear_instance(61)
    ctx = make_context(*C.shape)
    calls = []

    def factory(X, params):
        calls.append(params.sigma)
        return ScaledLinearPenalty(C, ctx, params.sigma)

    cfg = projection_preset(t_max=50)
    rep = ep4orth_solve(TargetDistanceObjective(C), ctx, cfg,
                        inner_factory=factory)
    assert len(calls) == rep.outer_iterations
    assert calls == sorted(calls)  # sigma only grows


def test_driver_respects_do_postprocess_flag():
    C, _ = tiny_linear_instance(62)
    ctx = make_context(*C.shape)
    cfg = projection_preset(t_max=50, do_postprocess=False)
    rep = ep4orth_solve(TargetDistanceObjective(C), ctx, cfg)
    assert np.array_equal(rep.final, rep.extra["X_rounded"])


def test_driver_report_extras_for_inspection():
    C, _ = tiny_linear_instance(63)
    ctx = make_context(*C.shape)
    rep = ep4orth_solve(TargetDistanceObjective(C), ctx,
                        projection_preset(t_max=50))
    assert "X_preround" in rep.extra and "X_rounded" in rep.extra
    ctx2 = make_context(*C.shape)
    assert zeta(rep.extra["X_preround"], ctx2) == pytest.approx(rep.zeta)


# --------------------------------------------------------------------------
# presets


def test_projection_preset_frozen_values():
    cfg = projection_preset()
    assert (cfg.sigma0, cfg.gamma2, cfg.eta) == (1e-2, 5.0, 0.8)
    assert cfg.tol_feas == 1e-8
    assert cfg.force_solver == "gp-fixed"
    assert cfg.fixed_alpha == 0.99
    assert cfg.eps_grad0 == 1e-4


def test_onmf_preset_frozen_values():
    cfg = onmf_preset()
    assert (cfg.sigma0, cfg.eta, cfg.tol_feas) == (1e-3, 0.98, 1e-8)
    assert cfg.gamma2_rule(2.5) == pytest.approx(1.05)
    assert cfg.gamma2_rule(1.5) == pytest.approx(1.03)
    hyper = onmf_preset(hyperspectral=True)
    assert hyper.tol_feas == 0.3
    assert hyper.gamma2_rule(2.5) == pytest.approx(1.155)
    assert hyper.gamma2_rule(1.5) == pytest.approx(1.133)
    assert hyper.zeta_switch == 0.6


@pytest.mark.parametrize("k, solver", [(3, "newton"), (10, "gp")])
def test_onmf_preset_starts_first_order_above_the_switch(k, solver):
    # the defect is at most k - 1, so zeta_switch = 5 keeps k = 3 on the
    # second-order solver, while the SVD start at k = 10 has defect about 6
    A = gen_onmf(200, 600, k, 0.0, seed=1).A
    start = svd_init(A, k)
    defect = np.linalg.norm(start @ make_context(200, k).V) ** 2 - 1.0
    assert onmf_preset().zeta_switch == 5.0
    assert (defect > 5.0) == (solver == "gp")
    rep = solve_onmf(A, k, onmf_preset(t_max=1))
    assert rep.history[0]["solver"] == solver


def test_kindicators_preset_frozen_values():
    cfg = kindicators_preset()
    assert (cfg.sigma0, cfg.gamma2, cfg.eta, cfg.tol_feas) == (10.0, 10.0,
                                                              0.5, 0.1)
    assert (cfg.eps_grad0, EPS_GRAD_MIN) == (1e-3, 1e-7)
    assert (cfg.t_max, cfg.max_inner) == (60, 500)
    assert cfg.force_solver == "gp-bb"
    assert cfg.anchor == "start"
    assert kindicators_preset(t_max=5).t_max == 5


# --------------------------------------------------------------------------
# giving up on an inner solve the next outer iteration discards


def give_up_per_solve(monkeypatch, solve):
    """Run solve() and return, per projected-gradient solve, whether the
    driver handed it a give-up test."""
    armed = []
    inner = driver.gradient_projection_solve

    def watched(*args, give_up, **kwargs):
        armed.append(give_up is not None)
        return inner(*args, give_up=give_up, **kwargs)

    monkeypatch.setattr(driver, "gradient_projection_solve", watched)
    solve()
    return armed


@pytest.mark.parametrize("overrides, armed_expected", [
    # armed in every outer iteration but the last one t_max allows
    ({}, [True, True, False]),
    ({"t_max": 1}, [False]),
    # the next sigma is not known in advance
    ({"gamma2_rule": lambda s2: 10.0}, [False] * 3),
    # the discard rule is that of "start"
    ({"anchor": "result"}, [False] * 3),
    # the settled stop would count the abandoned iterate's support
    ({"do_postprocess": True}, [False] * 3),
    # the driver stops after the solve once sigma has passed 1e16
    ({"sigma0": 2e16}, [False]),
])
def test_driver_arms_the_give_up_test_only_before_an_anchor_test(
        monkeypatch, overrides, armed_expected):
    cfg = dict(dict(anchor="start", force_solver="gp-bb", t_max=3),
               **overrides)
    armed = give_up_per_solve(monkeypatch, lambda: schedule_run(**cfg))
    assert armed == armed_expected


def test_driver_arms_no_give_up_test_for_projection(monkeypatch):
    # heavy noise: the bound does not end the run at its start
    C = gen_projection(60, 4, 1.2, seed=0).C
    armed = give_up_per_solve(monkeypatch, lambda: solve_projection(C))
    assert armed and not any(armed)
