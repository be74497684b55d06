"""Exception types shared across the toolkit."""


class SpecdriftError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SpecdriftError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class EdgeError(DomainError):
    """Evaluation requested at (or too close to) a support edge where a
    derivative diverges."""


class InvalidProfileError(SpecdriftError, ValueError):
    """Allocation function is not strictly increasing / not a valid profile."""


class ConvergenceError(SpecdriftError, RuntimeError):
    """Iterative solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OutsideSupportError(DomainError):
    """Spectral location lies outside the limiting support."""


class DegenerateGapError(DomainError):
    """Two eigenvalues coincide where a spectral gap is required."""


class EmptyWindowError(DomainError):
    """A spectral window selected no eigenvalues."""


class RankDeficientError(DomainError):
    """Every sampled overlap block was rank deficient (infinite distance)."""


class ConfigError(SpecdriftError, ValueError):
    """Invalid experiment or CLI configuration."""
