"""penorth's namespace is its public API: what README documents and the
applications, the CLI and the benchmark use. Everything else is imported
from its own module."""
import ast
import pathlib
import re
import types

import penorth

PUBLIC = [
    "BadLabels", "BadShape", "DimensionMismatch", "DriverConfig",
    "EmptyColumnSupport", "InfeasibleSupport", "KindicatorsInstance",
    "KindicatorsObjective", "LinearObjective", "NegativeEntry",
    "NonFiniteObjective", "NonUnitColumn", "NotFeasible", "NotTangent",
    "Objective", "OnmfInstance", "OnmfQuadObjective", "OpnmfObjective",
    "ParseError", "PenalizedObjective", "PenaltyContext", "PenaltyParams",
    "PenorthError", "ProjectionInstance", "ScaledLinearPenalty",
    "SingularCurvature", "SingularGram", "SolveReport", "SolverError",
    "TargetDistanceObjective", "ValidationError", "ZeroColumn",
    "check_stationarity_original", "clustering_metrics", "ep4orth_solve",
    "feasibility_violation", "feasible_init", "gap", "gen_kindicators",
    "gen_onmf", "gen_projection", "kindicators_preset", "kindicators_solve",
    "make_context", "make_oblique", "onmf_preset", "postprocess",
    "project_oblique_plus", "projection_preset", "read_matrix", "resi",
    "rho_q", "riemannian_grad", "riemannian_hess_apply", "round",
    "solve_onmf", "solve_projection", "stationarity_residual", "svd_init",
    "write_matrix", "write_report", "zeta",
]

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_are_pinned():
    names = sorted(k for k, v in vars(penorth).items()
                   if not k.startswith("_")
                   and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
    assert len(PUBLIC) == 62


def test_readme_imports_only_public_names():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.S | re.M)
    imported = {alias.name for code in blocks
                for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "penorth"
                for alias in node.names}
    assert imported  # the fence pattern still finds the examples
    assert imported <= set(PUBLIC)


def test_readme_public_api_paragraph_lists_every_name():
    text = README.read_text()
    section = text[text.index("### Public API"):]
    section = section[:section.index("\n#")]
    assert set(re.findall(r"`(\w+)`", section)) - {"penorth"} == set(PUBLIC)
