"""Exception types shared across the package."""


class SpdeControlError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(SpdeControlError, ValueError):
    """More modes/data requested than the truncated representation holds."""


class ConfigurationError(SpdeControlError, ValueError):
    """Inconsistent or out-of-range configuration values."""


class GridError(SpdeControlError, ValueError):
    """Time grids or spike sets that do not align with the step size."""


class ShapeError(SpdeControlError, ValueError):
    """Array arguments with incompatible shapes."""


class InstabilityError(SpdeControlError, RuntimeError):
    """Simulation blow-up; ``step`` names the first offending time step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RegressionError(SpdeControlError, RuntimeError):
    """Least-squares regression failure (e.g. ill conditioning)."""
