"""Irreducible dimensions of alternating groups by residue mod 4.

Restriction from the symmetric group settles every degree: a
self-conjugate partition splits into two irreducibles of half its
dimension, and a conjugate pair collapses to a single irreducible.  The
counts by residue therefore follow from the partition counts, with a
correction term for self-conjugate partitions whose dimension is twice
an odd number.  The oracle does no walk of its own: it reads the
brute-force sweep of `enumeration`, which tallies those self-conjugate
shapes beside the residue counts, under the same bound.
"""

from __future__ import annotations

import dataclasses

from .enumeration import (DEFAULT_ORACLE_BOUND, EXACT, _oracle_sweep, _split_signed,
                          clear_caches, count_odd, delta)
from .errors import SizeLimitError

# The oracle has no bound or cache of its own.  DEFAULT_ALT_ORACLE_BOUND and
# clear_caches (the enumeration one, imported above) stay only because the
# benchmark in perfbench/ reads them.
DEFAULT_ALT_ORACLE_BOUND = DEFAULT_ORACLE_BOUND


@dataclasses.dataclass(frozen=True)
class AltReport:
    """Alternating-group irreducible counts by dimension residue mod 4."""

    n: int
    a_circ: int
    a1_circ: int
    a3_circ: int
    delta_circ: int
    m2_hat: int
    source: str

    def __post_init__(self) -> None:
        if self.a_circ != self.a1_circ + self.a3_circ:
            raise ValueError(f"a_circ {self.a_circ} != a1_circ + a3_circ")
        if self.delta_circ != self.a1_circ - self.a3_circ:
            raise ValueError(f"delta_circ {self.delta_circ} != a1_circ - a3_circ")


def _power_base(n: int) -> int:
    # n or n - 1, whichever is a power of two >= 4; 0 when neither is
    for base in (n, n - 1):
        if base >= 4 and base & (base - 1) == 0:
            return base
    return 0


def hat_m2(n: int) -> int:
    """Self-conjugate partitions of n whose dimension is 2 mod 4.

    >>> hat_m2(3)
    1
    >>> hat_m2(9)
    2
    >>> hat_m2(6)
    0
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 3:
        return 1
    base = _power_base(n)
    return 1 << (base.bit_length() - 3) if base else 0


def a_circ(n: int) -> int:
    """Number of odd-dimension irreducibles of the alternating group.

    >>> a_circ(3)
    3
    >>> a_circ(8)
    8
    >>> a_circ(5)
    4
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 1
    return 2 * hat_m2(n) + count_odd(n) // 2


def delta_circ(n: int, oracle_bound: int | None = None) -> tuple[int, str]:
    """Signed residue count a1_circ - a3_circ with a status flag.

    Closed for n = 3 and for n a power of two or one more than one;
    otherwise half the symmetric-group delta, inheriting its status.

    >>> delta_circ(8)
    (4, 'exact-formula')
    >>> delta_circ(9)
    (2, 'exact-formula')
    >>> delta_circ(5)
    (0, 'exact-formula')
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n <= 2:
        return (1, EXACT)
    if n == 3:
        return (3, EXACT)
    base = _power_base(n)
    if base:
        return ((1 << (base.bit_length() - 2)) - (0 if base == n else 2), EXACT)
    value, status = delta(n, oracle_bound)
    half, rem = divmod(value, 2)
    if rem:
        raise RuntimeError(f"odd symmetric-group delta {value} at n={n}")
    return (half, status)


def a1_a3_circ(n: int, oracle_bound: int | None = None) -> tuple[int, int]:
    return _split_signed(n, a_circ(n), delta_circ(n, oracle_bound)[0])


def formula_alt_counts(n: int, oracle_bound: int | None = None) -> AltReport:
    """Assemble an AltReport from the closed forms; source becomes
    "mixed" when delta_circ took the symmetric-group odd-stream fallback,
    which answers only up to `oracle_bound` (default DEFAULT_ORACLE_BOUND)
    and raises SizeLimitError past it."""
    value, status = delta_circ(n, oracle_bound)
    a1, a3 = _split_signed(n, a_circ(n), value)
    return AltReport(
        n=n, a_circ=a1 + a3, a1_circ=a1, a3_circ=a3, delta_circ=value,
        m2_hat=hat_m2(n), source="formula" if status == EXACT else "mixed",
    )


def alternating_oracle(n: int, oracle_bound: int | None = None) -> AltReport:
    """Alternating-group degrees by residue, read off the brute-force sweep.

    The sweep is the one `enumeration.oracle_counts` runs, with the same
    bound (default DEFAULT_ORACLE_BOUND); past it SizeLimitError is
    raised.  No group computation happens, only the partition walk.
    """
    bound = DEFAULT_ORACLE_BOUND if oracle_bound is None else oracle_bound
    if n < 3:
        raise ValueError(f"the oracle starts at n=3, got {n}")
    if n > bound:
        raise SizeLimitError(f"alternating sweep of n={n} exceeds the bound {bound}")
    c1, _, c3, plus, minus = _oracle_sweep(n)
    # Restriction to A_n: conjugate shapes share a dimension, so the c1 and
    # c3 odd shapes (none self-conjugate once n >= 2) pair off into c1/2 and
    # c3/2 irreducibles; a self-conjugate shape of dimension 2 mod 4 splits
    # into two odd halves carrying the sign of its odd part.
    ones, threes = c1 // 2 + 2 * plus, c3 // 2 + 2 * minus
    return AltReport(
        n=n, a_circ=ones + threes, a1_circ=ones, a3_circ=threes,
        delta_circ=ones - threes, m2_hat=plus + minus, source="oracle",
    )
