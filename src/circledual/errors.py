"""Exception types shared across the package."""


class CircleDualError(Exception):
    """Base class for all errors raised by circledual."""


class DimensionError(CircleDualError, ValueError):
    """Invalid or mismatched vector/matrix dimension."""


class BasisError(CircleDualError, ValueError):
    """Operation mixed the energy and ontological bases."""


class NormalizationError(CircleDualError, ValueError):
    """A state or distribution violated its normalization contract."""


class DomainError(CircleDualError, ValueError):
    """Argument outside the domain of the requested evaluation."""


class PoleError(CircleDualError, ZeroDivisionError):
    """Evaluation requested exactly at a pole of the map."""


class NearSingularityError(CircleDualError, ValueError):
    """Angle too close to the divergence of the circle kernel."""


class ConvergenceError(CircleDualError, ArithmeticError):
    """Requested accuracy unreachable within the term budget.

    Carries the best estimate obtained so far so callers can decide
    whether to accept it.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None, terms=0):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.terms = terms


class ZeroFindingError(CircleDualError, ArithmeticError):
    """Polynomial root finding failed; holds iteration diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
