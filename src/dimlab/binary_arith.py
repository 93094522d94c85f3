"""Bit-level statistics and the mod-4 sign of odd parts.

Every positive integer factors as 2^v * u with u odd, and u is congruent to
either 1 or 3 mod 4.  Encoding that residue as a sign +1/-1 makes it
multiplicative, which is what the dimension formulas downstream exploit.
The sign of the odd part of n! has a closed form in terms of the binary
digits of n, so none of this ever touches big integers.  `dim_mod4` and the
oracle sweep read all three facts per hook from the immutable `_tables`.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from operator import xor


def v2(n: int) -> int:
    """2-adic valuation: exponent of the largest power of 2 dividing n.

    >>> v2(40)
    3
    """
    if n <= 0:
        raise ValueError(f"v2 is defined for positive integers, got {n}")
    return (n & -n).bit_length() - 1


def top_two_bits(n: int) -> int:
    """Sum of the two most significant binary digits of n (1 or 2)."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    k = n.bit_length() - 1
    if k == 0:
        return 1
    return 1 + ((n >> (k - 1)) & 1)


def bit_positions(n: int) -> frozenset[int]:
    """Set of positions of the 1-digits in the binary expansion of n."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    positions = []
    while n:
        low = n & -n
        positions.append(low.bit_length() - 1)
        n ^= low
    return frozenset(positions)


def sign_parity(n: int) -> int:
    """0 if the odd part of n is 1 mod 4, 1 if it is 3 mod 4."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    return (n >> (n & -n).bit_length()) & 1


def odd_sign(n: int) -> int:
    """Sign encoding of the odd part of n mod 4: +1 for 1, -1 for 3.

    Multiplicative: odd_sign(m * n) == odd_sign(m) * odd_sign(n).  The
    paper's a1/a3 split is this sign of the dimension; for a self-conjugate
    shape only its diagonal hooks can change it (tests/test_alternating.py).

    >>> odd_sign(12), odd_sign(20)
    (-1, 1)
    """
    return -1 if sign_parity(n) else 1


def factorial_sign_parity(n: int) -> int:
    """Sign parity of the odd part of n!, in O(1) bit operations.

    0 when the odd part of n! is 1 mod 4, 1 when it is 3 mod 4.  This is
    the XOR of sign_parity(r) for r = 1..n, but computed from the binary
    digits of n alone: the number of adjacent 1-digit pairs of n plus the
    digit count of n//4, mod 2.

    >>> factorial_sign_parity(4)   # 24 = 8 * 3
    1
    >>> factorial_sign_parity(7)   # 5040 = 16 * 315, 315 = 4*78+3
    1
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    return ((n & (n >> 1)).bit_count() + (n >> 2).bit_count()) & 1


def is_sparse(n: int) -> bool:
    """True when no two consecutive binary digits of n are both 1.

    >>> is_sparse(42), is_sparse(7)
    (True, False)
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    return (n & (n >> 1)) == 0


@cache
def _tables(size: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # v2(d), sign_parity(d) and factorial_sign_parity(d), the running XOR of
    # sign_parity, for every d < size, d = 0 reading 0.  Callers ask for the
    # power of two above the largest d they read: at most twice what they read
    lows = [(d & -d).bit_length() for d in range(size)]
    signs = tuple([d >> low & 1 for d, low in zip(range(size), lows)])
    return (0, *[low - 1 for low in lows[1:]]), signs, tuple(accumulate(signs, xor))


def binom_mod4_counts(n: int) -> tuple[int, int]:
    """How many entries of row n of Pascal's triangle are 1 and 3 mod 4.

    Paper fact (acceptance criterion 13): the two counts are equal when n
    has two adjacent 1-digits, and every odd entry is 1 mod 4 otherwise.
    Residues come from bit and sign arithmetic, never from the binomial
    values themselves: by Lucas's theorem C(n,k) is odd exactly when the
    binary digits of k are a subset of those of n, so only those
    2^(ones of n) values of k are visited, and then the mod-4 residue is
    the product of the three factorial signs.

    >>> binom_mod4_counts(3)
    (2, 2)
    >>> binom_mod4_counts(5)
    (4, 0)
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
