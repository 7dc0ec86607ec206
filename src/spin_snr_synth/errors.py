"""Exception types shared across the package."""


class SpinSnrError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpinSnrError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PhysicalityError(DomainError):
    """Relaxation rates violate 2*Gamma >= gamma (i.e. T2 > 2*T1)."""


class ConvergenceError(SpinSnrError, RuntimeError):
    """An iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BracketingError(SpinSnrError, RuntimeError):
    """A root/extremum search could not bracket its target."""
