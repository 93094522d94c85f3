"""Shared exception types, the one check of an integer argument against its least
value, and the text that names a refused value in a message, at any size."""


class SizeLimitError(ValueError):
    """An input is larger than the configured bound for exact computation."""


def size_text(n: int) -> str:
    """n in a message: its digits up to 64 bits, past that its sign and bit length."""
    return str(n) if n.bit_length() <= 64 else f"{'minus ' * (n < 0)}a {n.bit_length()}-bit number"


def at_least(name: str, value: int, least: int) -> None:
    """Refuse with ValueError an integer argument below least, naming the argument."""
    if value < least:
        bound = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {bound}, got {size_text(value)}")


def quoted(text: str) -> str:
    """text in a message: its repr, cut after 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"
