"""Exception types shared across the package.

All of these derive from ValueError so that callers who do not care about
the distinction can catch one base class.  The CLI maps ConfigError to
exit code 2 and everything else to exit code 1.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad domain, grid size, parameter ranges, keys."""


class DataError(ValueError):
    """Invalid data: non-finite samples or values where numbers are required."""


class ShapeError(ValueError):
    """Mismatched discretizations: two grid functions on different grids."""


class NumericalError(RuntimeError):
    """A linear solve or factorization failed (singular or indefinite system)."""
