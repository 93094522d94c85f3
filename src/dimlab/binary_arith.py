"""Bit-level statistics and the mod-4 sign of odd parts.

Every positive integer factors as 2^v * u with u odd, and u is congruent to
either 1 or 3 mod 4.  Encoding that residue as a sign parity, 0 for 1 and
1 for 3, makes it additive: the parity of a product is the XOR of its
factors' parities, which is what the dimension formulas downstream exploit.
The sign of the odd part of n! has a closed form in terms of the binary
digits of n, so none of this ever touches big integers.  `dim_mod4` and the
oracle sweep read all three facts per hook from the immutable `_tables`,
which `v2`, `sign_parity` and `factorial_sign_parity` fill.
"""

from __future__ import annotations

from functools import cache

from .errors import at_least


def v2(n: int) -> int:
    """2-adic valuation: exponent of the largest power of 2 dividing n.

    >>> v2(40)
    3
    """
    at_least("n", n, 1)
    return (n & -n).bit_length() - 1


def top_two_bits(n: int) -> int:
    """Sum of the two most significant binary digits of n (1 or 2)."""
    at_least("n", n, 1)
    k = n.bit_length() - 1
    if k == 0:
        return 1
    return 1 + ((n >> (k - 1)) & 1)


def position_sum(n: int) -> int:
    """Sum of the positions of the 1-digits of n, from a few popcounts.

    Mask k holds a 1 at each position whose index has bit k set, so the sum
    is that of 2^k times the ones of n under mask k.

    >>> position_sum(44)   # 101100: positions 2, 3 and 5
    10
    """
    at_least("n", n, 0)
    masks = _position_masks((n.bit_length() - 1).bit_length())
    return sum((n & mask).bit_count() << k for k, mask in enumerate(masks))


@cache
def _position_masks(k_max: int) -> tuple[int, ...]:
    # mask k for k < k_max, over the 2^k_max positions below 2^(2^k_max): runs
    # of 2^k zeros then 2^k ones, one block per period 2^(k+1)
    ones = (1 << (1 << k_max)) - 1
    return tuple(ones // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1) << (1 << k)
                 for k in range(k_max))


def sign_parity(n: int) -> int:
    """0 if the odd part of n is 1 mod 4, 1 if it is 3 mod 4."""
    at_least("n", n, 1)
    return (n >> (n & -n).bit_length()) & 1


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
    at_least("n", n, 0)
    return ((n & (n >> 1)).bit_count() + (n >> 2).bit_count()) & 1


def is_sparse(n: int) -> bool:
    """True when no two consecutive binary digits of n are both 1.

    >>> is_sparse(42), is_sparse(7)
    (True, False)
    """
    at_least("n", n, 1)
    return (n & (n >> 1)) == 0


@cache
def _tables(size: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # v2(d), sign_parity(d) and factorial_sign_parity(d) for every d < size,
    # d = 0 reading 0.  Callers ask for the power of two above the largest d
    # they read: at most twice what they read
    ds = range(1, size)
    return ((0, *map(v2, ds)), (0, *map(sign_parity, ds)),
            tuple(map(factorial_sign_parity, range(size))))
