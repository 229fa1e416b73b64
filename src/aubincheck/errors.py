"""Exception taxonomy shared across the package.

Input problems (bad expression text, bad indices, bad files) derive from
``InputError``; failures of the analysis preconditions at the reference
point (infeasibility, missing stationarity, MFCQ breakdown) derive from
``PreconditionError``.  The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""


class AubinCheckError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AubinCheckError):
    """Malformed user input (text, indices, dimensions, files)."""


class ExpressionSyntaxError(InputError):
    """Expression text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableIndexError(InputError):
    """Variable index is zero or exceeds the declared dimension."""


class ExponentError(InputError):
    """Exponent after '^' is not a non-negative integer literal."""


class DomainError(AubinCheckError):
    """A value at the reference point, or at a point the finite-difference
    audit perturbs, is not finite: ln or sqrt of a negative argument,
    division by zero or overflow gives NaN or an infinity."""


class DimensionMismatch(InputError):
    """Vectors or matrices have inconsistent dimensions."""


class PreconditionError(AubinCheckError):
    """The reference point violates a standing assumption of the analysis."""


class InfeasiblePoint(PreconditionError):
    """F(x, w) > 0 at the reference point: the point is outside the domain."""


class MfcqViolated(PreconditionError):
    """Boundary point with a vanishing constraint gradient: analysis inapplicable."""


class NotStationary(PreconditionError):
    """The reference point fails the first-order stationarity test."""


class UnsupportedConePattern(InputError):
    """A cone section was asked with more than two sign constraints or an unknown sense."""


class GridTooCoarse(UserWarning):
    """Newton refinement diverged for a significant share of grid seeds."""
