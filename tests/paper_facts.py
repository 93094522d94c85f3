"""Test-side statements of paper facts that no package code runs.

Each function restates a fact the tests check against the package: the
parity gap of an abacus (acceptance criterion 08), the binomial residue
tallies (criterion 13), the diagonal hooks of a shape, the parent-sign
step counted per parent on the parent's abacus, which the package reads
off its core's step masks instead, and the 2-quotient as a parity split
of the abacus with its string round trips, level by level, which the
package reads off runner bead counts instead.  They hold no assert:
pytest rewrites none outside test modules, and python -O strips them.
"""

from typing import Iterator

from dimlab.beta_sets import normalize_mask, shift_mask
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


def parity_split(x: int) -> tuple[int, int]:
    """The even and the odd beads of x, halved, after padding x to even size.

    The halves are left unnormalized: their popcounts are the parity
    census that core_height needs.

    >>> parity_split(0b11100)  # {4, 3, 2} pads to {5, 4, 3, 0}
    (5, 6)
    """
    if x.bit_count() & 1:
        x = shift_mask(x, 1)
    digits = format(x, "b")
    digits = digits.zfill(len(digits) + len(digits) % 2)
    return int(digits[1::2], 2), int(digits[::2], 2)


def core_height(evens: int, odds: int) -> int:
    """Rows of the 2-core of a beta-set with this many even and odd beads."""
    d = odds - evens
    return d if d >= 0 else -d - 1


def interleave(q0: int, q1: int, height: int) -> int:
    """Inverse of parity_split and core_height: the canonical abacus they came from.

    q0 and q1 are shifted to the fewest beads whose census has an even
    total and maps to `height`, then go back to the even and odd positions.
    """
    d = height if height % 2 == 0 else -(height + 1)
    evens = max(q0.bit_count(), q1.bit_count() - d, -d)
    b0 = shift_mask(q0, evens - q0.bit_count())
    b1 = shift_mask(q1, evens + d - q1.bit_count())
    # binary digits read in base 4 move bit i to bit 2i
    return normalize_mask(int(format(b0, "b"), 4) | int(format(b1, "b"), 4) << 1)


def _split(x: int) -> tuple[int, int, int]:
    """2-quotient masks and 2-core height of the canonical abacus x."""
    x0, x1 = parity_split(x)
    height = core_height(x0.bit_count(), x1.bit_count())
    return normalize_mask(x0), normalize_mask(x1), height


def split_rows(x: int) -> Iterator[list[int]]:
    """Staircase heights of each tower row over the abacus x, top row first.

    Each level splits every node's abacus into its 2-quotient masks.
    """
    level = [x]
    while any(level):
        heights, below = [], []
        for y in level:
            q0, q1, height = _split(y) if y else (0, 0, 0)
            heights.append(height)
            below += (q0, q1)
        yield heights
        level = below

