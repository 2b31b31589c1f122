import numpy as np
import pytest

from penorth import make_context, make_oblique, support_pattern
from penorth.errors import (BadShape, NegativeEntry, NonUnitColumn,
                            ValidationError)
from penorth.types import DriverConfig, PenaltyParams, SolveReport


def test_make_oblique_accepts_unit_nonneg_columns():
    X = np.array([[0.6, 0.0], [0.8, 1.0], [0.0, 0.0]])
    M = make_oblique(X)
    assert M.n == 3 and M.k == 2
    assert np.array_equal(M.data, X)


def test_make_oblique_rejects_bad_inputs():
    with pytest.raises(NegativeEntry):
        make_oblique(np.array([[1.0], [-1e-6], [0.0]]))
    with pytest.raises(NonUnitColumn):
        make_oblique(np.array([[0.5], [0.5], [0.0]]))
    with pytest.raises(BadShape):
        make_oblique(np.ones((2, 3)))  # wide
    with pytest.raises(ValidationError):
        make_oblique(np.array([[np.nan], [1.0]]))


def test_make_oblique_data_is_read_only():
    M = make_oblique(np.eye(3, 2))
    with pytest.raises(ValueError):
        M.data[0, 0] = 2.0


def test_make_oblique_no_silent_normalization():
    # a column off by 1e-6 is an error, not something to quietly fix
    X = np.eye(3, 2)
    X[0, 0] = 1.0 + 1e-6
    with pytest.raises(NonUnitColumn):
        make_oblique(X)


def test_make_context_default_direction():
    ctx = make_context(5, 4)
    assert ctx.V.shape == (4, 1)
    assert abs(np.linalg.norm(ctx.V) - 1.0) < 1e-15
    assert np.all(ctx.vvt > 0)
    assert ctx.omega_min == pytest.approx(0.25)
    assert ctx.omega_max == pytest.approx(0.25)


def test_make_context_rejects_unnormalized_or_signed_v():
    with pytest.raises(ValidationError):
        make_context(4, 2, V=np.array([[1.0], [1.0]]))
    with pytest.raises(ValidationError):
        make_context(4, 2, V=np.array([[1.0], [0.0]]))  # vvt has zeros


def test_penalty_params_guards():
    PenaltyParams(sigma=1.0, p=1.0, q=2.0, eps=0.0)
    PenaltyParams(sigma=1.0, p=0.5, q=2.0, eps=0.1)
    with pytest.raises(ValidationError):
        PenaltyParams(sigma=0.0, p=1.0, q=2.0, eps=0.0)
    with pytest.raises(ValidationError):
        PenaltyParams(sigma=1.0, p=1.0, q=2.0, eps=-0.1)
    # p >= 1 forces eps = 0
    with pytest.raises(ValidationError):
        PenaltyParams(sigma=1.0, p=2.0, q=2.0, eps=0.1)


def test_support_pattern_partitions():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pat = support_pattern(X)
    assert pat.supp.sum() == 2
    assert pat.zero_rowdead.sum() == 2  # whole first row
    assert pat.zero_rowlive.sum() == 2
    total = pat.supp | pat.zero_rowlive | pat.zero_rowdead
    assert total.all()
    assert not (pat.supp & pat.zero_rowlive).any()
    assert not (pat.supp & pat.zero_rowdead).any()


def test_driver_config_validation():
    DriverConfig()
    with pytest.raises(ValidationError):
        DriverConfig(sigma0=-1.0)
    with pytest.raises(ValidationError):
        DriverConfig(gamma2=1.0)  # growth factor must exceed 1
    with pytest.raises(ValidationError):
        DriverConfig(eta=1.5)
    with pytest.raises(ValidationError):
        DriverConfig(force_solver="simplex")


@pytest.mark.parametrize("bad", [
    {"sigma0": "abc"}, {"gamma2": True}, {"eta": np.nan}, {"eps0": np.inf},
    {"tol_feas": None}, {"t_max": 3.0}, {"max_inner": 2.5}, {"rng_seed": "1"},
    {"max_inner": False}, {"gamma2_rule": 3.0},
])
def test_driver_config_rejects_values_of_the_wrong_type(bad):
    with pytest.raises(BadShape, match=next(iter(bad))):
        DriverConfig(**bad)


def test_driver_config_accepts_numpy_numbers():
    cfg = DriverConfig(sigma0=np.float64(0.5), t_max=np.int64(3), p=1,
                       gamma2_rule=lambda s2: 2.0)
    assert cfg.t_max == 3 and cfg.p == 1


def test_solve_report_to_dict_drops_arrays():
    rep = SolveReport(final=np.eye(2), objective=1.0, zeta=0.0,
                      kkt_residual=0.0, feasibility=0.0,
                      outer_iterations=1, inner_iterations=2, seconds=0.1,
                      termination="feasibility-tol")
    rep.extra["gap"] = 0.5
    rep.extra["X_preround"] = np.eye(2)
    d = rep.to_dict()
    assert d["gap"] == 0.5
    assert "X_preround" not in d
    assert "final" not in d or not isinstance(d.get("final"), np.ndarray)
