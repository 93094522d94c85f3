"""Test-side statements of paper facts that no package code runs.

Each function restates a fact the tests check against the package: the
parity gap of an abacus (acceptance criterion 08), the binomial residue
tallies (criterion 13), the diagonal hooks of a shape, and the parent-sign
step counted per parent on the parent's abacus, which the package reads
off its core's step masks instead.  They hold no assert: pytest rewrites
none outside test modules, and python -O strips them.
"""

from dimlab.binary_arith import factorial_sign_parity
from dimlab.partitions import Partition, conjugate


def parity_gap(x: int) -> int:
    """Beads of abacus x at even positions minus those at odd ones."""
    digits = format(x, "b")[::-1]
    return digits[::2].count("1") - digits[1::2].count("1")


def binom_mod4_counts(n: int) -> tuple[int, int]:
    """How many entries of row n of Pascal's triangle are 1 and 3 mod 4.

    Only the k whose binary digits are a subset of n's give odd C(n, k)
    (Lucas), and the residue of each is the product of three factorial signs.
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    pn = factorial_sign_parity(n)
    ones = threes = 0
    k = n
    while True:
        if pn ^ factorial_sign_parity(k) ^ factorial_sign_parity(n - k):
            threes += 1
        else:
            ones += 1
        if not k:
            return ones, threes
        k = (k - 1) & n


def diagonal_hooks(p: Partition) -> list[int]:
    """Hook lengths of the diagonal cells (i, i), top-left first."""
    cols = conjugate(p).parts
    return [row + cols[i] - 2 * i - 1 for i, row in enumerate(p.parts) if row > i]


def _between(x: int, h: int, t: int) -> int:
    """Beads of abacus x strictly between h - t and h."""
    lo = max(h - t + 1, 0)
    return ((x & ((1 << h) - 1)) >> lo).bit_count()


def _flip_parity(x: int, h: int, t: int) -> int:
    """eta mod 2 for the parent abacus x whose added t-hook has first-column hook h >= t.

    The window count, less the bead at h - t/2, plus the beads at h + t/2
    and h - 3t/2 (absent when that is negative).
    """
    half = t >> 1
    eta = _between(x, h, t) ^ x >> (h - half) ^ x >> (h + half)
    if h >= 3 * half:
        eta ^= x >> (h - 3 * half)
    return eta & 1


def _sign_step(top: int, top_h: int, eta: int) -> int:
    """Parity relating a core's sign to its parent's.

    For a parent of size n > 3 with top = top_two_bits(n) whose added hook
    has first-column hook h, top_h = top_two_bits(h) and eta = _flip_parity
    of the parent at h.
    """
    return (top + top_h + eta) & 1
