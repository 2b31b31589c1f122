"""Exact-penalty optimization with orthogonal, entrywise-nonnegative columns.

The feasible set is {X : X^T X = I, X >= 0}. The method relaxes to the
nonnegative oblique manifold (unit nonnegative columns), penalizes the
orthogonality defect ||X V||_F^q - 1, solves a sequence of penalized
subproblems with first- or second-order manifold solvers, and rounds the
result back to exact feasibility with a certified error bound.

This namespace is the public API (README, "Public API"). The inner
solvers, kernels and inner models stay importable from their modules
(penorth.subsolvers, penorth.manifold, ...), but are not stable API.
"""

from .driver import (ep4orth_solve, feasible_init, kindicators_preset,
                     onmf_preset, postprocess, projection_preset)
from .errors import (BadLabels, BadShape, DimensionMismatch,
                     EmptyColumnSupport, InfeasibleSupport, NegativeEntry,
                     NonFiniteObjective, NonUnitColumn, NotFeasible,
                     NotTangent, ParseError, PenorthError, SingularCurvature,
                     SingularGram, SolverError, ValidationError, ZeroColumn)
from .io import read_matrix, write_matrix, write_report
from .manifold import (project_oblique_plus, riemannian_grad,
                       riemannian_hess_apply, stationarity_residual)
from .penalty import PenalizedObjective, check_stationarity_original, zeta
from .problems import (KindicatorsInstance, KindicatorsObjective,
                       LinearObjective, OnmfInstance, OnmfQuadObjective,
                       OpnmfObjective, ProjectionInstance, ScaledLinearPenalty,
                       TargetDistanceObjective, clustering_metrics, gap,
                       gen_kindicators, gen_onmf, gen_projection,
                       kindicators_solve, resi, solve_onmf, solve_projection,
                       svd_init)
from .rounding import feasibility_violation, rho_q, round
from .types import (DriverConfig, Objective, PenaltyContext, PenaltyParams,
                    SolveReport, make_context, make_oblique)

__version__ = "0.1.0"
