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
    """A linear solve was refused because the system is ill-conditioned.

    ``cond_estimate`` holds the condition number of the refused matrix: exact
    in the 2-norm for Id + B, a LAPACK 1-norm estimate for a dense N.
    """

    def __init__(self, message, cond_estimate=None):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class ConditionViolationError(HidaLabError, ArithmeticError):
    """The Gram matrix fails the positivity/imaginarity admissibility test."""


class NumericFailureError(HidaLabError, RuntimeError):
    """A numerical kernel (eigensolver, factorization) failed to converge."""
