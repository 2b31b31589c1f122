"""Exact-penalty optimization with orthogonal, entrywise-nonnegative columns.

The feasible set is {X : X^T X = I, X >= 0}. The method relaxes to the
nonnegative oblique manifold (unit nonnegative columns), penalizes the
orthogonality defect ||X V||_F^q - 1, solves a sequence of penalized
subproblems with first- or second-order manifold solvers, and rounds the
result back to exact feasibility with a certified error bound.
"""

from .driver import (ep4orth_solve, feasible_init, kindicators_preset,
                     onmf_preset, postprocess, projection_preset)
from .errors import (BadLabels, BadShape, DimensionMismatch,
                     EmptyColumnSupport, InfeasibleSupport, NegativeEntry,
                     NonFiniteObjective, NonUnitColumn, NotFeasible,
                     NotTangent, ParseError, PenorthError, SingularCurvature,
                     SingularGram, SolverError, ValidationError, ZeroColumn)
from .io import read_matrix, read_report, write_matrix, write_report
from .manifold import (project_delta_cols, project_oblique_plus,
                       project_orthogonal_group, project_tangent_T,
                       riemannian_grad, riemannian_hess_apply,
                       stationarity_residual)
from .penalty import (PenalizedObjective, StationarityReport,
                      check_stationarity_original, zeta)
from .problems import (KindicatorsInstance, KindicatorsModel,
                       KindicatorsObjective, LinearObjective, OnmfInstance,
                       OnmfQuadObjective, OpnmfObjective, ProjectionInstance,
                       ScaledLinearPenalty, TargetDistanceObjective,
                       clustering_metrics, gap, gen_kindicators, gen_onmf,
                       gen_projection, kindicators_solve, onmf_gauss_newton_Y,
                       resi, sad, solve_onmf, solve_projection, svd_init)
from .rounding import feasibility_violation, rho_q, rho_tilde, round
from .subsolvers import (InnerReport, gradient_projection_solve, newton_solve,
                         solve_qp_subproblem)
from .types import (DriverConfig, Objective, PenaltyContext, PenaltyParams,
                    SolveReport, make_context, make_oblique)

__version__ = "0.1.0"
