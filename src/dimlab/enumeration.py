"""Counting partitions of n by the residue of their dimension mod 4.

Closed forms and recursions cover most inputs: the odd count is read off
the binary expansion, the residue-2 count satisfies a two-branch
recursion on the leading binary digit, and the signed difference
a1 - a3 recurses whenever the two leading digits are "10".  Inputs whose
binary expansion starts "11" and carries three or more ones have no
proved formula; for those the signed difference falls back to a signed
walk over the odd-partition stream and says so in its status flag.  The
walk visits only the a(n) odd abaci and carries each dimension's sign
down from its core with the parent-sign step of `parents`, so it builds
no partition and computes no dimension.  The brute-force sweep over all
p(n) partitions stays as the independent oracle, for the symmetric group
and, through its self-conjugate tally, for the alternating group.
"""

from __future__ import annotations

import dataclasses
from functools import cache
from math import comb
from typing import Iterator

from .beta_sets import parts_of
from .binary_arith import bit_positions, is_sparse
from .errors import SizeLimitError
from .parents import _flip_parity, _hook_additions, _sign_step
from .partitions import Partition, conjugate, dim_mod4, enumerate_partitions

DEFAULT_ORACLE_BOUND = 40

EXACT = "exact-formula"
FALLBACK = "oracle-fallback"

@dataclasses.dataclass(frozen=True)
class CountReport:
    """Counts of partitions of n by dimension residue class mod 4.

    a1, a2, a3 count residues 1, 2, 3; a = a1 + a3 is the odd count,
    delta = a1 - a3, and m4 = a + a2 counts dimensions not divisible
    by 4.  source is "formula", "oracle", or "mixed" when a formula
    report took delta from the odd-stream fallback.
    """

    n: int
    a: int
    a1: int
    a2: int
    a3: int
    delta: int
    m4: int
    source: str

    def __post_init__(self) -> None:
        if self.a != self.a1 + self.a3:
            raise ValueError(f"a = {self.a} but a1 + a3 = {self.a1 + self.a3}")
        if self.delta != self.a1 - self.a3:
            raise ValueError(f"delta = {self.delta} but a1 - a3 = {self.a1 - self.a3}")
        if self.m4 != self.a + self.a2:
            raise ValueError(f"m4 = {self.m4} but a + a2 = {self.a + self.a2}")
        if self.source not in ("formula", "oracle", "mixed"):
            raise ValueError(f"unknown source {self.source!r}")


def count_odd(n: int) -> int:
    """Number of partitions of n with odd dimension: 2^(sum of bit positions).

    >>> count_odd(5)
    4
    >>> count_odd(6)
    8
    >>> count_odd(1)
    1
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    exponent = sum(bit_positions(n))
    if exponent >= 64:
        raise SizeLimitError(f"odd-partition count of {n} needs 2^{exponent}, past the 64-bit line")
    return 1 << exponent


def delta_sparse(n: int) -> int:
    """Closed form for a1 - a3 when n has no adjacent binary ones."""
    if n == 0:
        return 1
    if not is_sparse(n):
        raise ValueError(f"{n} is not sparse")
    if n == 2:
        return 2
    if n % 2 == 0:
        return 0
    return 4 ** (bin(n).count("1") - 1)


@cache
def _delta(n: int, bound: int) -> tuple[int, str]:
    if n <= 2:
        return ((1, 1, 2)[n], EXACT)
    r = n.bit_length() - 1
    m = n - (1 << r)
    half = 1 << (r - 1)
    if m == 0:
        return (0, EXACT)
    if m == half:
        return ({3: 2, 6: 8}.get(n, 0), EXACT)
    if m < half:
        if m % 2 == 0:
            return (0, EXACT)
        value, status = _delta(m, bound)
        return (4 * value, status)
    # leading binary digits "11" with more ones behind them: no proved
    # formula exists, so fall back to the signed odd stream, whose a(n)
    # leaves carry their signs down from the cores
    if n > bound:
        raise SizeLimitError(
            f"delta({n}) has no closed form (leading 11 with extra ones) "
            f"and exceeds the oracle bound {bound}"
        )
    return (sum(1 - 2 * parity for _, parity in _odd_abaci(n)), FALLBACK)


def delta(n: int, oracle_bound: int | None = None) -> tuple[int, str]:
    """Signed count a1(n) - a3(n) and how it was obtained.

    The status is EXACT for a proved formula and FALLBACK for the signed
    odd-stream walk, which answers a leading-"11" n only up to
    `oracle_bound` (default DEFAULT_ORACLE_BOUND) and raises
    SizeLimitError past it.

    >>> delta(5)
    (4, 'exact-formula')
    >>> delta(6)
    (8, 'exact-formula')
    >>> delta(4)
    (0, 'exact-formula')
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _delta(n, DEFAULT_ORACLE_BOUND if oracle_bound is None else oracle_bound)


def _split_signed(n: int, a: int, value: int) -> tuple[int, int]:
    # (a + value) / 2 and (a - value) / 2: the residue-1 and residue-3
    # counts from an odd count and its signed difference
    if (a + value) % 2:
        raise RuntimeError(f"parity violation at n={n}: odd count {a}, signed count {value}")
    one, three = (a + value) // 2, (a - value) // 2
    if one < 0 or three < 0:
        raise RuntimeError(f"negative count at n={n}: {one} and {three}")
    return one, three


def a1_a3(n: int, oracle_bound: int | None = None) -> tuple[int, int]:
    """The residue-1 and residue-3 counts, from the odd count and delta."""
    return _split_signed(n, count_odd(n), delta(n, oracle_bound)[0])


@cache
def a2(n: int) -> int:
    """Number of partitions of n with dimension exactly 2 mod 4.

    Recursion on the leading binary digit, with the branch split at the
    second-highest bit; totals for the smaller index enter through the
    odd count.

    >>> a2(4)
    1
    >>> a2(5)
    1
    >>> a2(6)
    2
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n <= 1:
        return 0
    r = n.bit_length() - 1
    m = n - (1 << r)
    half = 1 << (r - 1)
    if m < half:
        return (1 << r) * a2(m) + comb(half, 2) * count_odd(m)
    scaled, rem = divmod((comb(half, 3) + half) * count_odd(m), half)
    assert rem == 0, f"inexact division in a2({n})"
    return (1 << r) * a2(m) + scaled


def a2_sparse(n: int) -> int:
    """Shortcut for a2 on sparse n: odd n defers to n-1, even n is
    a(n)(n - 2*ones)/8."""
    if n == 0:
        return 0
    if not is_sparse(n):
        raise ValueError(f"{n} is not sparse")
    if n % 2:
        return a2_sparse(n - 1)
    scaled, rem = divmod(count_odd(n) * (n - 2 * bin(n).count("1")), 8)
    assert rem == 0, f"inexact division in a2_sparse({n})"
    return scaled


def m4(n: int) -> int:
    """Partitions of n whose dimension is not divisible by 4.

    >>> m4(6)
    10
    >>> m4(1)
    1
    >>> m4(4)
    5
    """
    return count_odd(n) + a2(n)


def enumerate_odd_partitions(n: int) -> Iterator[Partition]:
    """Yield exactly the partitions of n with odd dimension.

    Walks the binary expansion top bit first: the odd partitions of
    2^r + m are precisely the partitions obtained from odd partitions
    of m by adding one hook of length 2^r.  Even-dimension partitions
    are never touched, so the stream scales with the odd count, not
    with p(n).  The walk runs on abacus ints and builds one Partition per
    partition yielded.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    for x, _ in _odd_abaci(n):
        yield Partition(parts_of(x))


def _odd_abaci(n: int) -> Iterator[tuple[int, int]]:
    # (abacus, sign parity) for each odd partition of n, the parity being 1
    # when the dimension is 3 mod 4.  A parent's parity is its core's XOR
    # the step of predict_parent_sign; below size 4 every odd dimension is 1.
    if n == 0:
        yield 0, 0
        return
    t = 1 << (n.bit_length() - 1)
    for core, parity in _odd_abaci(n - t):
        for *_, h, parent in _hook_additions(core, t):
            yield parent, (parity ^ _sign_step(n, h, _flip_parity(parent, h, t))
                           if n > 3 else 0)


@cache
def _oracle_sweep(n: int) -> tuple[int, int, int, int, int]:
    # residues 1, 2, 3, then the self-conjugate shapes of dimension 2 mod 4
    # whose odd part is 1 and 3 mod 4: the alternating oracle reads those
    tally = [0, 0, 0, 0, 0]
    for p in enumerate_partitions(n):
        cls = dim_mod4(p)
        residue = cls.residue
        if residue:
            tally[residue - 1] += 1
        if p and len(p) == p[0] and p == conjugate(p):
            assert n < 2 or cls.v2 >= 1, f"self-conjugate {p} has odd dimension"
            if cls.v2 == 1:
                tally[3 if cls.sign == 1 else 4] += 1
    return tuple(tally)


def oracle_counts(n: int, oracle_bound: int | None = None) -> CountReport:
    """Classify every partition of n by brute force; fields all carry
    source "oracle"."""
    bound = DEFAULT_ORACLE_BOUND if oracle_bound is None else oracle_bound
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > bound:
        raise SizeLimitError(f"oracle sweep of n={n} exceeds the bound {bound}")
    c1, c2, c3, _, _ = _oracle_sweep(n)
    return CountReport(
        n=n, a=c1 + c3, a1=c1, a2=c2, a3=c3,
        delta=c1 - c3, m4=c1 + c2 + c3, source="oracle",
    )


def formula_counts(n: int, oracle_bound: int | None = None) -> CountReport:
    """Assemble a CountReport from the closed forms; source becomes
    "mixed" when delta needed the odd-stream fallback."""
    value, status = delta(n, oracle_bound)
    a1, a3 = _split_signed(n, count_odd(n), value)
    two = a2(n)
    return CountReport(
        n=n, a=a1 + a3, a1=a1, a2=two, a3=a3,
        delta=a1 - a3, m4=a1 + a3 + two,
        source="formula" if status == EXACT else "mixed",
    )


def clear_caches() -> None:
    """Drop all memoized counting state (mainly for cold-start timing)."""
    _delta.cache_clear()
    a2.cache_clear()
    _oracle_sweep.cache_clear()
