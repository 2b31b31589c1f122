"""Exception hierarchy.

Two families: ValidationError for bad inputs (CLI exit code 2) and
SolverError for numerical failures (CLI exit code 3). Conditions that
do not abort a run (line-search failure, curvature estimate exhausted,
max iterations) are not exceptions: they are string flags on reports.
"""


class PenorthError(Exception):
    """Base class for all library errors."""


class ValidationError(PenorthError):
    """Invalid input data or configuration."""


class SolverError(PenorthError):
    """A solver failed to produce a usable result."""


# -- validation --------------------------------------------------------------

class BadShape(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class NonUnitColumn(ValidationError):
    pass


class NotTangent(ValidationError):
    pass


class NotFeasible(ValidationError):
    pass


class InfeasibleSupport(ValidationError):
    """A column has no positive entry, so its affine slice is empty."""


class EmptyColumnSupport(ValidationError):
    """A rounded point has a column with no support to refine over."""


class ZeroColumn(ValidationError):
    pass


class BadLabels(ValidationError):
    pass


class ParseError(ValidationError):
    """File parsing failed; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(ValidationError):
    pass


# -- solver failures ----------------------------------------------------------

class NonFiniteObjective(SolverError):
    pass


class SingularCurvature(SolverError):
    """Penalty curvature scalar undefined (p < 1 with zero penalty residual)."""


class SingularGram(SolverError):
    pass

