"""Exception hierarchy shared by all modules."""


class HidaLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HidaLabError, ValueError):
    """An argument violates a documented precondition."""


class CausticError(HidaLabError, ArithmeticError):
    """The model sits on (or numerically too close to) a caustic time.

    Carries the caustic classification string and the offending k*t value.
    """

    def __init__(self, message, classification=None, kt=None):
        super().__init__(message)
        self.classification = classification
        self.kt = kt


class NearSingularError(HidaLabError, ArithmeticError):
    """A linear solve was refused because the system is ill-conditioned."""


class ConditionViolationError(HidaLabError, ArithmeticError):
    """The Gram matrix fails the positivity/imaginarity admissibility test."""


class NumericFailureError(HidaLabError, RuntimeError):
    """A number left the float range or could not be formed: an overflow, a division
    by zero or an invalid value in numpy anywhere in the T-transform, the closed
    forms or another guarded computation, a non-finite T-transform or report, an
    underflowed det M, or too few discrete eigenvalues to match."""
