"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
NumericalError -> 3, FitError -> 4.
"""

__all__ = [
    "FocklabError",
    "ConfigError",
    "NumericalError",
    "NotPositiveDefiniteError",
    "IllConditionedError",
    "DivergenceError",
    "FitError",
]


class FocklabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FocklabError, ValueError):
    """Invalid potential data, ensemble configuration, or CLI input."""


class NumericalError(FocklabError, RuntimeError):
    """A numerical procedure could not meet its contract."""


class NotPositiveDefiniteError(NumericalError):
    """A moment matrix failed its positive-definiteness requirement."""


class IllConditionedError(NumericalError):
    """A scaled moment matrix exceeded the conditioning guardrail."""


class DivergenceError(NumericalError, OverflowError):
    """A requested value diverges (series overflow, density at 0 for c < 0)."""


class FitError(NumericalError):
    """A least-squares fit is degenerate (too few usable points)."""
