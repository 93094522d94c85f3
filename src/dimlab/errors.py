"""Shared exception types."""


class SizeLimitError(ValueError):
    """An input is larger than the configured bound for exact computation."""


def size_text(n: int) -> str:
    """n in a refusal: its digits up to 64 bits, past that its bit length."""
    return str(n) if n.bit_length() <= 64 else f"a {n.bit_length()}-bit number"


def quoted(text: str) -> str:
    """text in a message: its repr, cut after 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"
