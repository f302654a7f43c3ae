"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ValidationError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class NonFiniteError(ArithmeticError):
    """A computation produced or encountered NaN or infinity."""


class CaptureError(RuntimeError):
    """An op built while a Tape captures could not be rerun by a replay."""


class ParseError(ValueError):
    """A file or stream does not conform to its documented format.

    Carries optional location context (1-based line number or byte offset).
    """

    def __init__(self, message: str, *, line: int | None = None,
                 offset: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        elif offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.line = line
        self.offset = offset
