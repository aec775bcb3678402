"""Exception types shared across the package.

The three input errors derive from ValueError, so a caller who does not
care about the distinction can catch that one base class; NumericalError
derives from RuntimeError.  The CLI maps ConfigError to exit code 2 and
everything else to exit code 1.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad domain, grid size, parameter ranges, keys."""


class DataError(ValueError):
    """Invalid data: non-finite samples or values where numbers are required."""


class ShapeError(ValueError):
    """Values of the wrong shape for their grid or operator."""


class NumericalError(RuntimeError):
    """A linear solve or factorization failed (singular or indefinite system)."""
