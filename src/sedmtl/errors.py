"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of the operands are incompatible."""


class ArgumentError(ValueError):
    """An argument is outside its documented domain."""


class ParseError(ValueError):
    """A text input could not be parsed; message carries the line number if
    one line is at fault."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """A configuration document violates the schema."""


class DataError(RuntimeError):
    """Required data is missing or unusable."""
