"""Irreducible dimensions of alternating groups by residue mod 4.

Restriction from the symmetric group settles every degree: a
self-conjugate partition splits into two irreducibles of half its
dimension, and a conjugate pair collapses to a single irreducible.  The
counts by residue therefore follow from the partition counts, with a
correction term for self-conjugate partitions whose dimension is twice
an odd number.
"""

from __future__ import annotations

import dataclasses
from functools import cache

from .enumeration import DEFAULT_ORACLE_BOUND, EXACT, count_odd, delta
from .errors import SizeLimitError
from .partitions import conjugate, dim_mod4, enumerate_partitions

DEFAULT_ALT_ORACLE_BOUND = 36


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
    for base in (n, n - 1):
        if base >= 4 and base & (base - 1) == 0:
            return 1 << (base.bit_length() - 3)
    return 0


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
    for base, off in ((n, 0), (n - 1, -2)):
        if base >= 4 and base & (base - 1) == 0:
            return ((1 << (base.bit_length() - 2)) + off, EXACT)
    value, status = delta(n, oracle_bound)
    half, rem = divmod(value, 2)
    if rem:
        raise RuntimeError(f"odd symmetric-group delta {value} at n={n}")
    return (half, status)


def a1_a3_circ(n: int, oracle_bound: int | None = None) -> tuple[int, int]:
    a = a_circ(n)
    value, _ = delta_circ(n, oracle_bound)
    if (a + value) % 2:
        raise RuntimeError(f"parity violation at n={n}: a_circ={a}, delta_circ={value}")
    return (a + value) // 2, (a - value) // 2


def formula_alt_counts(n: int, oracle_bound: int | None = None) -> AltReport:
    _, status = delta_circ(n, oracle_bound)
    a1, a3 = a1_a3_circ(n, oracle_bound)
    return AltReport(
        n=n, a_circ=a1 + a3, a1_circ=a1, a3_circ=a3, delta_circ=a1 - a3,
        m2_hat=hat_m2(n), source="formula" if status == EXACT else "mixed",
    )


@cache
def _alt_sweep(n: int) -> tuple[int, int, int]:
    ones = 0
    threes = 0
    twice_odd = 0
    for p in enumerate_partitions(n):
        conj = conjugate(p)
        if p == conj:
            cls = dim_mod4(p)
            assert cls.v2 >= 1, f"self-conjugate {p} has odd dimension"
            if cls.v2 == 1:
                twice_odd += 1
                # both halves are odd with the sign the even dimension carried
                if cls.sign == 1:
                    ones += 2
                else:
                    threes += 2
        elif p.parts < conj.parts:
            cls = dim_mod4(p)
            if cls.v2 == 0:
                if cls.sign == 1:
                    ones += 1
                else:
                    threes += 1
    return ones, threes, twice_odd


def alternating_oracle(n: int, oracle_bound: int | None = None) -> AltReport:
    """Walk all partitions of n and tally alternating-group degrees.

    Self-conjugate shapes contribute two irreducibles of half the
    dimension; unordered conjugate pairs contribute one of the full
    dimension.  No group computation happens, only partition walks.
    """
    bound = DEFAULT_ALT_ORACLE_BOUND if oracle_bound is None else oracle_bound
    if n < 3:
        raise ValueError(f"the oracle starts at n=3, got {n}")
    if n > bound:
        raise SizeLimitError(f"alternating sweep of n={n} exceeds the bound {bound}")
    ones, threes, twice_odd = _alt_sweep(n)
    return AltReport(
        n=n, a_circ=ones + threes, a1_circ=ones, a3_circ=threes,
        delta_circ=ones - threes, m2_hat=twice_odd, source="oracle",
    )


def clear_caches() -> None:
    _alt_sweep.cache_clear()
