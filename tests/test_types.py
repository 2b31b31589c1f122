import numpy as np
import pytest

from penorth import (kindicators_solve, make_context, make_oblique,
                     project_oblique_plus, round, solve_onmf,
                     solve_projection, svd_init)
from penorth.errors import (BadShape, NegativeEntry, NonUnitColumn,
                            ValidationError)
from penorth.manifold import project_orthogonal_group
from penorth.types import DriverConfig, PenaltyParams, SolveReport


def test_make_oblique_accepts_unit_nonneg_columns():
    X = np.array([[0.6, 0.0], [0.8, 1.0], [0.0, 0.0]])
    M = make_oblique(X)
    assert M.shape == (3, 2)
    assert np.array_equal(M, X)


def test_make_oblique_rejects_bad_inputs():
    with pytest.raises(NegativeEntry):
        make_oblique(np.array([[1.0], [-1e-6], [0.0]]))
    with pytest.raises(NonUnitColumn):
        make_oblique(np.array([[0.5], [0.5], [0.0]]))
    with pytest.raises(BadShape):
        make_oblique(np.ones((2, 3)))  # wide
    with pytest.raises(ValidationError):
        make_oblique(np.array([[np.nan], [1.0]]))


# every entry point that takes a data matrix: (call, the argument's name in
# its messages, whether it needs n >= k >= 1)
ENTRY_POINTS = {
    "solve_projection": (solve_projection, "C", True),
    "solve_onmf": (lambda A: solve_onmf(A, 2), "A", False),
    "svd_init": (lambda A: svd_init(A, 2), "A", False),
    "kindicators_solve": (kindicators_solve, "U", True),
    "project_oblique_plus": (project_oblique_plus, "matrix", True),
    "round": (round, "matrix", True),
    "make_oblique": (make_oblique, "matrix", True),
    "project_orthogonal_group": (project_orthogonal_group, "matrix", False),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_matrices_in_one_wording(entry):
    call, name, tall = ENTRY_POINTS[entry]
    with_nan = np.eye(3)
    with_nan[1, 2] = np.nan
    bad = [(np.ones(4), f"{name} must be 2-d, got ndim=1"),
           (with_nan, f"{name} contains non-finite entries")]
    if tall:
        bad.append((np.ones((2, 3)), f"{name} must be n x k with "
                    "n >= k >= 1, got shape (2, 3)"))
    for data, message in bad:
        with pytest.raises(BadShape) as err:
            call(data)
        assert str(err.value) == message


def test_project_orthogonal_group_rejects_a_non_square_matrix():
    with pytest.raises(BadShape, match=r"^matrix must be square, got shape "
                                       r"\(3, 2\)$"):
        project_orthogonal_group(np.ones((3, 2)))


def test_make_oblique_data_is_read_only():
    M = make_oblique(np.eye(3, 2))
    with pytest.raises(ValueError):
        M[0, 0] = 2.0


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


@pytest.mark.parametrize("field", ["sigma", "p", "q", "eps"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_penalty_params_reject_non_finite(field, value):
    # NaN and inf pass the sign tests (sigma > 0, eps < 0 ...); p < 1 so
    # that a nonzero eps is allowed
    kwargs = {"sigma": 1.0, "p": 0.5, "eps": 0.1, field: value}
    with pytest.raises(BadShape, match=f"{field} must be finite"):
        PenaltyParams(**kwargs)


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
    {"sigma0": "abc"}, {"gamma2": True}, {"eta": np.nan},
    {"eps_grad0": np.inf}, {"tol_feas": None}, {"t_max": 3.0},
    {"max_inner": 2.5}, {"t_max": "1"},
    {"max_inner": False}, {"gamma2_rule": 3.0},
    {"do_postprocess": "false"}, {"do_postprocess": None},
    {"do_postprocess": 0}, {"do_postprocess": 1.0},
])
def test_driver_config_rejects_values_of_the_wrong_type(bad):
    with pytest.raises(BadShape, match=next(iter(bad))):
        DriverConfig(**bad)


def test_driver_config_accepts_numpy_numbers():
    cfg = DriverConfig(sigma0=np.float64(0.5), t_max=np.int64(3),
                       max_inner=np.int32(7), zeta_switch=1,
                       gamma2_rule=lambda s2: 2.0,
                       do_postprocess=np.bool_(False))
    assert cfg.t_max == 3 and cfg.max_inner == 7 and cfg.zeta_switch == 1
    assert not cfg.do_postprocess


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
