"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Inputs have inconsistent or invalid dimensions."""


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class RegimeError(ValueError):
    """Parameters fall outside the regime where a formula or bound applies."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values.

    ``rows``, when known, indexes the batch rows that went non-finite.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class DataFormatError(ValueError):
    """An input file does not match the expected format."""
