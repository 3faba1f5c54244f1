"""Shared exception types."""


class ParseError(ValueError):
    """Raised when a scenario document does not have the documented shape."""


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


class ToleranceError(RuntimeError):
    """Raised when an iterative routine cannot meet its requested tolerance."""
