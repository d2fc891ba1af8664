"""Exception hierarchy shared across the package, and the integer check
that every count and stream address goes through."""

import numpy as np


class SpgradError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SpgradError):
    """Invalid configuration value or mismatched component wiring."""


class NumericError(SpgradError):
    """A computation produced a non-finite or otherwise unusable value."""


class OracleBudgetError(SpgradError):
    """An exact-enumeration oracle would exceed its path budget."""


def check_integer(value, name: str) -> int:
    """``value`` as an int when it is an int or a numpy integer (a bool is
    neither); ConfigurationError otherwise, so that 2.5 is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)
