"""Irreducible dimensions of alternating groups by residue mod 4.

Restriction from the symmetric group settles every degree: a
self-conjugate partition splits into two irreducibles of half its
dimension, and a conjugate pair collapses to a single irreducible.  The
counts by residue therefore follow from the partition counts, with a
correction term for self-conjugate partitions whose dimension is twice
an odd number.  The oracle does no walk of its own: it reads the
brute-force sweep of `enumeration`, which tallies those self-conjugate
shapes beside the residue counts, behind the same gate.
"""

from __future__ import annotations

from typing import NamedTuple

from .enumeration import _SOURCES, EXACT, _split_signed, _sweep, clear_caches, count_odd, delta
from .errors import at_least
from .partitions import ENUMERATION_LIMIT

# The oracle has no limit or cache of its own: the sweep refuses n past
# ENUMERATION_LIMIT.  DEFAULT_ALT_ORACLE_BOUND, an alias of that limit, and
# clear_caches (the enumeration one, imported above) stay only because the
# benchmark in perfbench/ reads them.
DEFAULT_ALT_ORACLE_BOUND = ENUMERATION_LIMIT


class AltReport(NamedTuple):
    """Alternating-group irreducible counts by dimension residue mod 4.

    a1_circ and a3_circ count odd-dimension irreducibles of residue 1 and
    3; a_circ = a1_circ + a3_circ is the odd count, delta_circ =
    a1_circ - a3_circ, and m2_hat counts self-conjugate partitions of
    dimension 2 mod 4, each splitting into two odd halves.  source is
    "formula", "oracle", or "mixed" when delta_circ took the odd-stream
    fallback.
    """

    n: int
    a_circ: int
    a1_circ: int
    a3_circ: int
    delta_circ: int
    m2_hat: int
    source: str


def _alt_report(n: int, a1: int, a3: int, m2: int, status: str | None) -> AltReport:
    # the one place a_circ and delta_circ are derived and the source is chosen
    return AltReport(n, a1 + a3, a1, a3, a1 - a3, m2, _SOURCES[status])


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
    at_least("n", n, 1)
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
    if n == 1:
        return 1
    return 2 * hat_m2(n) + count_odd(n) // 2


def delta_circ(n: int) -> tuple[int, str]:
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
    at_least("n", n, 1)
    if n <= 2:
        return (1, EXACT)
    if n == 3:
        return (3, EXACT)
    base = _power_base(n)
    if base:
        return ((1 << (base.bit_length() - 2)) - (0 if base == n else 2), EXACT)
    value, status = delta(n)
    half, rem = divmod(value, 2)
    if rem:
        raise RuntimeError(f"odd symmetric-group delta {value} at n={n}")
    return (half, status)


def formula_alt_counts(n: int) -> AltReport:
    """Assemble an AltReport from the closed forms; source becomes
    "mixed" when delta_circ took the symmetric-group odd-stream fallback,
    which raises SizeLimitError past its walk's ceiling."""
    value, status = delta_circ(n)
    a1, a3 = _split_signed(n, a_circ(n), value)
    return _alt_report(n, a1, a3, hat_m2(n), status)


def alternating_oracle(n: int) -> AltReport:
    """Alternating-group degrees by residue, read off the brute-force sweep.

    The sweep is the one `enumeration.oracle_counts` runs, behind the same
    gate: past ENUMERATION_LIMIT SizeLimitError is raised.  No group
    computation happens, only the partition walk.
    """
    at_least("n", n, 3)
    c1, _, c3, plus, minus = _sweep(n)[n]
    # Restriction to A_n: conjugate shapes share a dimension, so the c1 and
    # c3 odd shapes (none self-conjugate once n >= 2) pair off into c1/2 and
    # c3/2 irreducibles; a self-conjugate shape of dimension 2 mod 4 splits
    # into two odd halves carrying the sign of its odd part.
    return _alt_report(n, c1 // 2 + 2 * plus, c3 // 2 + 2 * minus, plus + minus, None)
