"""Shared exception types."""


class SizeLimitError(ValueError):
    """An input is larger than the configured bound for exact computation."""
