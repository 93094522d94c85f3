"""Test-side statements of paper facts that no package code runs.

Each function restates a fact the tests check against the package: the
parity gap of an abacus (acceptance criterion 08), the binomial residue
tallies (criterion 13) and the diagonal hooks of a shape.  They hold no
assert: pytest rewrites none outside test modules, and python -O strips them.
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
