"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed values (bad vertex ids, a set
that is not independent when one is required).  The subclasses below exist
so callers, in particular the CLI, can tell the failure classes apart.
"""

__all__ = ["ParameterError", "ParseError", "ResourceLimitError", "InternalError"]


class ParameterError(ValueError):
    """A parameter combination falls outside the range a routine supports."""


class ParseError(ValueError):
    """A graph file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceLimitError(RuntimeError):
    """A configured cap (search nodes, instance size) was exceeded."""


class InternalError(RuntimeError):
    """A result failed its own re-check (a bug); unlike ``assert``, kept by -O."""
