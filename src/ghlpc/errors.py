"""Exception taxonomy shared across the toolkit."""


class GhlpcError(Exception):
    """Base class for all toolkit errors."""


class CapabilityError(GhlpcError):
    """Request exceeds a hard structural limit (jet degree, direction count)."""


class EvaluationError(GhlpcError):
    """Model evaluation produced a non-finite value or hit a domain error."""


class ModelError(GhlpcError):
    """Base class for model-definition problems."""


class ParseError(ModelError):
    def __init__(self, message, line=None, col=None):
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnknownIdentifierError(ModelError):
    pass


class ModelSpecError(ModelError):
    """Structurally invalid model: wrong parameter count, bad delay, ..."""


class DomainError(GhlpcError, ValueError):
    """An input lies outside the range where the computation is defined:
    an epsilon past the pole of the period expansion, an empty or reversed
    epsilon grid."""


class ResonanceError(GhlpcError):
    """A regular solve was requested at (or too close to) an eigenvalue."""


class AmbiguousEigenvalueError(GhlpcError):
    """No clean simple eigenvalue near the requested frequency window."""


class ConvergenceError(GhlpcError):
    """An iterative solver (Newton, eigenrefinement) failed to converge."""


class TransversalityError(GhlpcError):
    """The 2x2 parameter-transformation system is singular/ill-conditioned."""


class IncompleteCoefficientsError(GhlpcError):
    """A predictor was requested with a missing coefficient index."""


class DegenerateGHWarning(UserWarning):
    """|Re c2| is below the degeneracy threshold: l2 ~ 0 at the GH point."""
