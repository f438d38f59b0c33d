"""Exception types shared across the package."""


class CrashSimError(Exception):
    """Base class for all crashsim errors."""


class DomainError(CrashSimError, ValueError):
    """A physical quantity is outside its valid domain (negative mass, altitude, ...)."""


class ConfigurationError(CrashSimError, ValueError):
    """Inconsistent or malformed configuration (sample-rate mismatch, bad bracket, ...)."""


class DegenerateDataError(DomainError):
    """A dataset that cannot support the requested estimate (e.g. all-zero deflections)."""


class UnsupportedRegimeError(DomainError):
    """Parameters fall outside the implemented analytic branch (e.g. overdamped)."""


class NumericalError(CrashSimError, ArithmeticError):
    """The simulation cannot resolve the requested contact on its time step."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time
