"""Shared exception types, and the one way to put a field path in front of an error."""


class _InputError(ValueError):
    """An error about an input, whose message starts with the input's path if one is given."""

    def __init__(self, reason, field: str | None = None):
        super().__init__(f"{field}: {reason}" if field else reason)
        self.reason, self.field = reason, field


class ParseError(_InputError):
    """Raised when a scenario document does not have the documented shape."""


class ValidationError(_InputError):
    """Raised when an input violates a documented invariant."""


def _checked(field: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its validation error prefixed by the field it
    concerns; paths compose, so a query's ``x2`` becomes ``queries[1].x2``."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(exc.reason, f"{field}.{exc.field}" if exc.field else field) from None
