import numpy as np
import pytest

from penorth import driver, make_context, make_oblique
from penorth.driver import (EPS_GRAD_MIN, SETTLE_MARGIN, SETTLE_WINDOW,
                            ep4orth_solve, feasible_init, kindicators_preset,
                            onmf_preset, postprocess, projection_preset,
                            row_support)
from penorth.errors import (BadShape, EmptyColumnSupport, NotFeasible,
                            ValidationError)
from penorth.manifold import project_oblique_plus
from penorth.penalty import zeta
from penorth.problems import (LinearObjective, OpnmfObjective,
                              ScaledLinearPenalty, TargetDistanceObjective,
                              gen_onmf, gen_projection, solve_onmf,
                              solve_projection, svd_init)
from penorth.rounding import feasibility_violation
from penorth.rounding import round as round_point
from penorth.types import DriverConfig

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
    want = round_point(project_oblique_plus(rng.random((6, 3))).data)
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


def test_postprocess_quadratic_form_improves_or_keeps():
    rng = oracles.rng_for(53)
    A = np.abs(rng.standard_normal((8, 12)))

    class ProjResidual(TargetDistanceObjective.__mro__[1]):
        pass

    from penorth.problems import OnmfQuadObjective, onmf_gauss_newton_Y
    Xr = round_point(oracles.random_feasible(rng, 8, 3))
    Y = onmf_gauss_newton_Y(A, Xr)
    f = OnmfQuadObjective(A, Y)
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
    C, Xs = tiny_linear_instance(55)
    ctx = make_context(*C.shape)
    cfg = projection_preset(t_max=100)
    factory = lambda X, params: ScaledLinearPenalty(C, ctx, params.sigma)
    rep = ep4orth_solve(TargetDistanceObjective(C), ctx, cfg,
                        X0=make_oblique(feasible_init(ctx, hint=C)),
                        inner_factory=factory)
    assert rep.termination == "feasibility-tol"
    assert rep.feasibility <= 1e-12
    assert rep.zeta <= cfg.tol_feas
    assert np.allclose(rep.final, Xs, atol=1e-6)


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
    return LinearObjective(-scale * X0.data), X0


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


# keys every history entry has; the settled stop adds the support_* pair
HISTORY_KEYS = {"t", "sigma", "eps_grad", "solver", "inner_iterations",
                "kkt_inner", "kkt_penalty", "zeta2", "h_start", "h_end",
                "descent_ok", "anchored", "trials", "inner_flags"}
SUPPORT_KEYS = {"support_unchanged", "support_margin"}


def test_settle_constants_frozen_values():
    assert (SETTLE_WINDOW, SETTLE_MARGIN) == (5, 0.5)


@pytest.mark.parametrize("seed", [0, 1])
def test_driver_settles_on_small_onmf(seed):
    inst = gen_onmf(30, 60, 3, 0.0, seed=seed)
    # unrefined, the final point round(X_T) depends on more than the
    # support: the continuation runs on to tol_feas
    full = solve_onmf(inst.A, 3, onmf_preset(do_postprocess=False))
    rep = solve_onmf(inst.A, 3)
    assert full.termination == "feasibility-tol"
    assert all(set(h) == HISTORY_KEYS for h in full.history)
    assert rep.termination == "settled"
    assert rep.outer_iterations < full.outer_iterations
    assert np.array_equal(np.argmax(rep.final, axis=1),
                          np.argmax(full.final, axis=1))
    assert rep.extra["resi"] <= 1e-8
    assert rep.feasibility <= 1e-12
    last = rep.history[-1]
    assert last["support_unchanged"] == SETTLE_WINDOW
    assert last["support_margin"] >= SETTLE_MARGIN
    # the report describes the last iterate before rounding
    assert rep.zeta == last["zeta2"] > 1e-8


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
                          X_feas=round_point(X0.data))
            for f in (OpnmfObjective, GenericOpnmf)]
    assert reps[0].termination == "settled"
    assert all(set(h) == HISTORY_KEYS | SUPPORT_KEYS
               for h in reps[0].history)
    assert reps[1].termination == "feasibility-tol"
    assert reps[1].outer_iterations > reps[0].outer_iterations
    assert all(set(h) == HISTORY_KEYS for h in reps[1].history)


def test_driver_never_settles_on_coincident_columns():
    # the iterate keeps its two columns identical, so its support never
    # moves but every row is a tie: the margin gate holds the stop back
    f, X0 = anti_anchor_objective(5, 2, scale=1e18)
    ctx = make_context(5, 2)
    cfg = DriverConfig(sigma0=1.0, gamma2=50.0, tol_feas=1e-30, t_max=300,
                       force_solver="gp", max_inner=5)
    rep = ep4orth_solve(f, ctx, cfg, X0=X0)
    assert rep.termination == "stalled"
    assert max(h["support_unchanged"] for h in rep.history) >= SETTLE_WINDOW
    assert all(h["support_margin"] == 0.0 for h in rep.history)


def test_row_support_labels_live_rows_and_sees_ties():
    X = np.array([[0.8, 0.2], [0.0, 0.0], [0.3, 0.6]])
    labels, margin = row_support(X)
    assert labels.tolist() == [0, -1, 1]  # the empty row has no label
    assert margin == pytest.approx(0.5)  # row 3: (0.6 - 0.3) / 0.6
    assert row_support(np.array([[0.5, 0.5], [0.0, 1.0]]))[1] == 0.0  # tie
    assert row_support(np.ones((3, 1)))[1] == 1.0  # k = 1
    # column 1 is no row's argmax, so rounding would reset the point
    assert row_support(np.array([[0.9, 0.1], [0.8, 0.2]]))[1] == 0.0
    assert row_support(np.zeros((3, 2)))[1] == 0.0  # no live row


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
    X_feas = overlap_start(6, 2).data  # unit columns, not orthogonal
    with pytest.raises(NotFeasible, match="feasible fallback"):
        ep4orth_solve(TargetDistanceObjective(C), ctx, X_feas=X_feas)


def test_driver_force_solver_paths():
    C, _ = tiny_linear_instance(59)
    ctx = make_context(*C.shape)
    f = TargetDistanceObjective(C)
    for solver in ("gp", "newton"):
        cfg = DriverConfig(sigma0=0.1, gamma2=5.0, tol_feas=1e-8,
                           t_max=60, force_solver=solver, max_inner=300)
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
    start = svd_init(A, k).data
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
    C = gen_projection(60, 4, 0.7, seed=1).C
    armed = give_up_per_solve(monkeypatch, lambda: solve_projection(C))
    assert armed and not any(armed)
