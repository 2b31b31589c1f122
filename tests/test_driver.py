import numpy as np
import pytest

from penorth import make_context, make_oblique
from penorth.driver import (PRESETS, PenaltySchedule, ep4orth_solve,
                            feasible_init, kindicators_preset, onmf_preset,
                            postprocess, projection_preset)
from penorth.errors import EmptyColumnSupport, ValidationError
from penorth.penalty import zeta
from penorth.problems import (LinearObjective, ScaledLinearPenalty,
                              TargetDistanceObjective)
from penorth.rounding import FeasiblePoint, feasibility_violation
from penorth.rounding import round as round_point
from penorth.types import DriverConfig

import oracles


# --------------------------------------------------------------------------
# schedule


def test_schedule_advance_grows_sigma_and_decays_eps_grad():
    s = PenaltySchedule(sigma=1e-2, eps=0.0, eps_grad=1e-3, gamma1=0.0,
                        gamma2=5.0, eta=0.8, eps_grad_min=1e-7)
    s.advance(1.5)
    assert s.sigma == pytest.approx(5e-2)
    assert s.eps_grad == pytest.approx(8e-4)
    for _ in range(100):
        s.advance(1.5)
    assert s.eps_grad == 1e-7  # floor holds


def test_schedule_rule_overrides_factor():
    s = PenaltySchedule(sigma=1.0, eps=0.0, eps_grad=1e-3, gamma1=0.0,
                        gamma2=5.0, eta=0.9, eps_grad_min=1e-7,
                        gamma2_rule=lambda s2: 1.05 if s2 > 2 else 1.03)
    s.advance(3.0)
    assert s.sigma == pytest.approx(1.05)
    s.advance(1.0)
    assert s.sigma == pytest.approx(1.05 * 1.03)


def test_schedule_rejects_non_growth():
    s = PenaltySchedule(sigma=1.0, eps=0.0, eps_grad=1e-3, gamma1=0.0,
                        gamma2=5.0, eta=0.9, eps_grad_min=1e-7,
                        gamma2_rule=lambda s2: 1.0)
    with pytest.raises(ValidationError):
        s.advance(1.0)


def test_schedule_eps_contracts_by_gamma1():
    s = PenaltySchedule(sigma=1.0, eps=0.5, eps_grad=1e-3, gamma1=0.25,
                        gamma2=2.0, eta=0.9, eps_grad_min=1e-7)
    s.advance(1.0)
    assert s.eps == pytest.approx(0.125)


# --------------------------------------------------------------------------
# feasible start


def test_feasible_init_from_hint():
    ctx = make_context(6, 3)
    rng = oracles.rng_for(50)
    hint = rng.standard_normal((6, 3))
    F = feasible_init(ctx, hint=hint)
    assert feasibility_violation(F.data) <= 1e-14


def test_feasible_init_random_deterministic():
    ctx = make_context(6, 3)
    a = feasible_init(ctx, rng=oracles.rng_for(51))
    b = feasible_init(ctx, rng=oracles.rng_for(51))
    assert np.array_equal(a.data, b.data)


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
    want = linear_support_optimum(np.asarray(f.refine_linear_C()), Xr.mask)
    # never worse than the support optimum; equal unless the guard kept Xr
    assert f.value(out.data) <= f.value(want) + 1e-12
    assert f.value(out.data) <= f.value(Xr.data) + 1e-12
    assert feasibility_violation(out.data) <= 1e-14


def test_postprocess_quadratic_form_improves_or_keeps():
    rng = oracles.rng_for(53)
    A = np.abs(rng.standard_normal((8, 12)))

    class ProjResidual(TargetDistanceObjective.__mro__[1]):
        pass

    from penorth.problems import OnmfQuadObjective, onmf_gauss_newton_Y
    Xr = round_point(oracles.random_feasible(rng, 8, 3))
    Y = onmf_gauss_newton_Y(A, Xr.data)
    f = OnmfQuadObjective(A, Y)
    out = postprocess(Xr, f)
    assert f.value(out.data) <= f.value(Xr.data) + 1e-12
    assert feasibility_violation(out.data) <= 1e-14


def test_postprocess_generic_never_worsens():
    rng = oracles.rng_for(54)
    T = oracles.random_feasible(rng, 6, 2)

    f = TargetDistanceObjective(T)
    f.refine_kind = "generic"  # no refine structure: rounded point returned
    Xr = round_point(oracles.random_unit_columns(rng, 6, 2))
    out = postprocess(Xr, f)
    assert f.value(out.data) <= f.value(Xr.data) + 1e-12
    assert feasibility_violation(out.data) <= 1e-14


def test_postprocess_rejects_empty_column_support():
    data = np.zeros((3, 2))
    data[0, 0] = 1.0
    mask = data > 0
    bad = FeasiblePoint(data=data, mask=mask)  # column 1 empty
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
                        X0=make_oblique(feasible_init(ctx, hint=C).data),
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


def fallback_rewarding_setup(n=6, k=2):
    """Objective that rewards the feasible fallback's pattern, started from
    the fully-overlapped point. With a starved inner budget the warm run
    cannot reach the fallback's value, so the fallback rescue must fire."""
    data = np.zeros((n, k))
    for j in range(k):
        data[j, j] = 1.0
    Xf = FeasiblePoint(data=data, mask=data > 0)
    return LinearObjective(-5.0 * data), Xf, overlap_start(n, k)


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
    assert rep.objective <= f.value(Xf.data) + 1e-12


def test_driver_start_anchor_resets_before_solving():
    f, Xf, X0 = fallback_rewarding_setup()
    ctx = make_context(6, 2)
    cfg = DriverConfig(sigma0=1.0, gamma2=5.0, tol_feas=1e-8, t_max=50,
                       force_solver="gp", max_inner=2, anchor="start")
    rep = ep4orth_solve(f, ctx, cfg, X0=X0, X_feas=Xf)
    first = rep.history[0]
    assert first["anchored"]
    # reset happens before the solve: the recorded start is the fallback's
    assert first["h_start"] == pytest.approx(f.value(Xf.data), abs=1e-12)
    assert rep.termination == "feasibility-tol"


def test_driver_rejects_unknown_anchor_policy():
    with pytest.raises(ValidationError):
        DriverConfig(anchor="sometimes")


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


def test_kindicators_preset_frozen_values():
    cfg = kindicators_preset()
    assert (cfg.sigma0, cfg.gamma2, cfg.eta, cfg.tol_feas) == (10.0, 10.0,
                                                              0.5, 0.1)
    assert (cfg.eps_grad0, cfg.eps_grad_min) == (1e-3, 1e-7)
    assert (cfg.t_max, cfg.max_inner) == (60, 500)
    assert cfg.force_solver == "gp-bb"
    assert cfg.anchor == "start"
    assert kindicators_preset(t_max=5).t_max == 5
    assert PRESETS["kindicators"] is kindicators_preset
