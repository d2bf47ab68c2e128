"""Exception types shared across the package, and the one count and one real check."""

import math
import numbers


class ShapeError(ValueError):
    """Inputs have inconsistent or invalid dimensions."""


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class RegimeError(ValueError):
    """Parameters fall outside the regime where a formula or bound applies.

    ``iterate``, when known, indexes the first iterate of a block outside it.
    """

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values.

    ``rows``, when known, indexes the batch rows that went non-finite.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class DataFormatError(ValueError):
    """An input file does not match the expected format."""


def require_count(name, value, minimum):
    """``value`` as an int count of at least ``minimum``, or ``ConfigError`` naming ``name``.

    An integral real (5 or 5.0) is taken; a bool, a non-integral number or a
    string is refused.
    """
    if type(value) is int and value >= minimum:  # the common case, without the ABC checks
        return value
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer count, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_positive(name, value):
    """``value`` as a finite positive float (not a bool), or ``ConfigError`` naming ``name``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        return float(value)
    raise ConfigError(f"{name} must be finite and positive, got {value!r}")
