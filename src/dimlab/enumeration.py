"""Counting partitions of n by the residue of their dimension mod 4.

Closed forms and recursions cover most inputs: the odd count is read off
the binary expansion, the residue-2 count is one sum over the binary
digits, a term per set bit, and the signed difference
a1 - a3 recurses whenever the two leading digits are "10".  Inputs whose
binary expansion starts "11" and carries three or more ones have no
proved formula; for those the signed difference falls back to a signed
walk over the odd-partition stream and says so in its status flag.  The
stream takes each core's parents, each with its own sign parity, from
`parents._hook_additions(core, n, parity)`, which lists them for
`all_parents` too, reads the core's step masks
(`parents._top_level_steps`) once and is the one place that flips every
step when n starts "10"; the stream builds that core's leaves in one
list.  The fallback, whose n starts "11", visits only the a(n - t) odd
cores below n's top bit t and sums the signs of a core's t parents by
popcounts of those masks (`parents._top_level_sum(core, t)`), so it
builds no partition, visits none of the a(n) = t * a(n - t) leaves
and computes no dimension.  A partition and its conjugate have the same
hooks, so the same dimension, and conjugate cores have the same sum over
their parents: the fallback visits one core of each conjugate pair and
doubles the sum.  The brute-force sweep over all
p(n) partitions stays as the independent oracle, for the symmetric group
and, through its self-conjugate tally, for the alternating group; its one
limit is ENUMERATION_LIMIT, checked before it walks anything.  It
shares only the abacus with the formulas and the walk, and with `dim_mod4`
only the tables of `binary_arith._tables`, asked for the power of two
above its largest n.  It places the rows of each partition bottom row
first, so every row's first-column hook is known when the row goes in,
and carries the determinant-form terms of the dimension down the search,
each added once for all the partitions that share the rows placed so far.
Every node of that search is a partition itself, so one walk sweeps a
range of sizes and keeps a tally per size.  It places only the shapes
whose first part is at least their row count, and counts twice each
whose first part is larger, for its conjugate, which it skips; so it
places about half of the partitions and counts each once.  The tally
reads only the shapes of v2 at most 1, so the walk yields only those.
Most shapes close a node with one last part, and the v2 of each is the
node's carried valuation plus two terms, neither negative, that sit in
the new hook's 16-bit field.  So one packed comparison over the node's
fields, a SWAR "field less than t" test, picks out the closing parts of
v2 at most 1, and the walk visits only those: a sweep of sizes 1 to 40
covers 113,696 shapes and yields 8,691.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterator, NamedTuple

from .binary_arith import _tables, is_sparse, position_sum
from .errors import SizeLimitError, size_text
from .parents import _hook_additions, _top_level_sum
from .partitions import ENUMERATION_LIMIT, Partition, conjugate_mask

# the fallback answers only n with at most 2^WALK_CEILING odd partitions, its
# one limit.  That count a(n) = t * a(n - t) still bounds the work: a(n - t)
# cores, each summing its t parents in O(log t) operations on t-bit ints, of
# which the walk visits half.  The costliest it admits, 220 = 11011100 and its
# peers with 2^15 cores (t = 128), took 0.05-0.07 s cold (a fresh process, best
# of 5, shared 2-core Xeon, Python 3.11; BENCH_23.json)
WALK_CEILING = 22

EXACT = "exact-formula"
FALLBACK = "walk-fallback"

class CountReport(NamedTuple):
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


# a report's source: a formula route's by its delta status, None for the oracle
_SOURCES = {EXACT: "formula", FALLBACK: "mixed", None: "oracle"}


def _count_report(n: int, a1: int, two: int, a3: int, status: str | None) -> CountReport:
    # the one place a, delta and m4 are derived and the source is chosen
    return CountReport(n, a1 + a3, a1, two, a3, a1 - a3, a1 + two + a3, _SOURCES[status])


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
    exponent = position_sum(n)
    if exponent >= 64:
        raise SizeLimitError(
            f"odd-partition count of {size_text(n)} needs 2^{exponent}, past the 64-bit line")
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
def _delta(n: int) -> tuple[int, str]:
    # each leading "10" over an odd rest m scales delta(m) by 4; a loop keeps long n off the stack
    scale = 1
    while True:
        if n <= 2:
            return (scale * (1, 1, 2)[n], EXACT)
        r = n.bit_length() - 1
        m = n - (1 << r)
        half = 1 << (r - 1)
        if m == 0:
            return (0, EXACT)
        if m == half:
            return (scale * {3: 2, 6: 8}.get(n, 0), EXACT)
        if m >= half:
            break
        if m % 2 == 0:
            return (0, EXACT)
        n, scale = m, 4 * scale
    # leading binary digits "11" with more ones behind them: no proved
    # formula exists, so fall back to the signed odd stream.  It visits one
    # of each conjugate pair of the a(m) odd cores of m = n - t, t = 2^r the
    # top bit of n, each with its sign, sums the signs of a core's t parents
    # in closed form, so no leaf is built, and doubles the sum: a core and its
    # conjugate share their sign and their parents' signs.  m > 2, so no core
    # is self-conjugate
    exponent = position_sum(n)
    if exponent > WALK_CEILING:
        raise SizeLimitError(
            f"delta of {size_text(n)} has no closed form (leading 11 with extra ones), and its "
            f"walk over 2^{exponent} odd partitions is past the walk's ceiling of 2^{WALK_CEILING}")
    t = 1 << r
    return (2 * scale * sum(_top_level_sum(core, t) * (1 - 2 * parity)
                            for core, parity in _odd_abaci(m, half=True)), FALLBACK)


def delta(n: int) -> tuple[int, str]:
    """Signed count a1(n) - a3(n) and how it was obtained.

    The status is EXACT ("exact-formula") for a proved formula and FALLBACK
    ("walk-fallback") for the signed odd-stream walk, which answers a
    leading-"11" n with at most 2^WALK_CEILING odd partitions and raises
    SizeLimitError past that.

    >>> delta(5)
    (4, 'exact-formula')
    >>> delta(6)
    (8, 'exact-formula')
    >>> delta(4)
    (0, 'exact-formula')
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _delta(n)


def _split_signed(n: int, a: int, value: int) -> tuple[int, int]:
    # (a + value) / 2 and (a - value) / 2: the residue-1 and residue-3
    # counts from an odd count and its signed difference
    if (a + value) % 2:
        raise RuntimeError(f"parity violation at n={n}: odd count {a}, signed count {value}")
    one, three = (a + value) // 2, (a - value) // 2
    if one < 0 or three < 0:
        raise RuntimeError(f"negative count at n={n}: {one} and {three}")
    return one, three


@cache
def a2(n: int) -> int:
    """Number of partitions of n with dimension exactly 2 mod 4.

    One sum over the set bits r >= 1 of n: the partitions whose 2-core
    tower trades bit r's 1 for two at r - 1 number c_r * 2^(E - r), E the
    sum of n's bit positions, half = 2^(r - 1), c_r = C(half, 2) when bit
    r - 1 is clear and (C(half, 3) + half) / half when it is set.  Every
    c_r is an integer, so the sum is exact at any size.

    >>> a2(4)
    1
    >>> a2(5)
    1
    >>> a2(6)
    2
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    exponent, total, bits = position_sum(n), 0, n >> 1 << 1
    while bits:
        low = bits & -bits
        bits ^= low
        r, half = low.bit_length() - 1, low >> 1
        # (C(half, 3) + half) / half = (half - 1)(half - 2)/6 + 1
        c = (half - 1) * (half - 2) // 6 + 1 if n & half else half * (half - 1) >> 1
        total += c << exponent - r
    return total


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
    with p(n).  The walk runs on abacus ints.  For each odd core of
    n - 2^r it builds the core's 2^r leaves in one list, unchecked
    Partitions whose parts are decoded only when first read, and the
    lists are chained, so memory stays at one core's leaves.  n is
    checked when the function is called, not when the stream is first
    read.  Each leaf carries the class of the sign parity that
    `_hook_additions` gave it off its core's step masks, and `dim_mod4`
    returns that class without computing.  The tests check those classes
    against `dim_mod4` of the checked twin `Partition(leaf.parts)`, which
    computes the hook product, and against the sweep's determinant form.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n < 2:
        return iter(Partition._of_abaci((n << 1,), (0,), n))
    return chain.from_iterable(Partition._of_abaci(*_hook_additions(core, n, parity), n)
                               for core, parity in _odd_abaci(n - (1 << n.bit_length() - 1)))


def _odd_abaci(n: int, half: bool = False) -> Iterator[tuple[int, int]]:
    # (abacus, sign parity) per odd partition of n, the parity 1 when the
    # dimension is 3 mod 4: each parent, with its own parity, that
    # _hook_additions lists for each odd core of n - t, t the top bit of n.
    # That also gives parity 0 at sizes 2 and 3, but not at size 1, whose
    # hook has length t = 1, so 0 and 1 are the base: the abaci of () and
    # (1).  With half, for n >= 2, one partition of each conjugate pair: the
    # parents of () or (1) pair off under conjugation, none self-conjugate,
    # so the level above the base keeps the smaller canonical abacus of each
    # pair, and the parents of a conjugate are the conjugates of the parents,
    # so the levels above it keep one of each pair too
    if n < 2:
        yield n << 1, 0
        return
    m = n - (1 << n.bit_length() - 1)
    pairs = half and m < 2
    for core, parity in _odd_abaci(m, half):
        for x, own in zip(*_hook_additions(core, n, parity)):
            if not pairs or x < conjugate_mask(x):
                yield x, own


# a gain past any threshold: a field no closing part reaches fails the test
_PAST = 0x100


def _closing_tables(vfact: list[int]) -> tuple[int, list[int], list[int], list[int]]:
    # the packed test of a node's closing parts, one 16-bit field per hook h
    # as in the sweep's `diffs`.  A closing part p of a node of size k with r
    # rows places hook h = p + r and lands at size h + o, o = k - r >= 0, so
    # its v2 is the node's val plus V[h] + vfact[h + o] - vfact[h], V[h] the
    # valuation byte of field h of diffs, and neither term is negative (vfact
    # never falls).  `diffs >> 8 & high` holds V[h] in field h.  gain[o] holds
    # vfact[h + o] - vfact[h] in field h up to hi - o, the last hook a closing
    # part reaches, and _PAST above it.  under[t] holds 0x7FFF + t in every
    # field, so field h of under[t] - gain[o] - V is 0x8000 + (t - 1 - f), f the
    # part's v2 less val, and its bit 15 is set exactly when f < t.  above[j]
    # holds bit 15 of fields j..hi.  Below 80 (`_sweep` refuses hi past
    # ENUMERATION_LIMIT) no field borrows from the next: V[h] sums v2 over
    # distinct differences h - y < 80, at most v2(79!) = 74; gain is at most
    # vfact[80] = 78; the test runs at t = 2 - val, and a node's val is
    # v2(dim) - v2(k!) for its size k < 80, at most 0 since dim divides k! and
    # at least -vfact[79], so 2 <= t <= 76; so f <= 74 + _PAST and every
    # field stays in [0x8000 - 74 - _PAST, 0x7FFF + 76], inside 16 bits
    hi = len(vfact) - 1
    ones = sum(1 << 16 * h for h in range(hi + 1))
    gain = [sum((vfact[h + o] - vfact[h] if h + o <= hi else _PAST) << 16 * h
                for h in range(hi + 1)) for o in range(hi + 1)]
    under = [(0x7FFF + t) * ones for t in range(vfact[hi] + 3)]
    above = [ones >> 16 * j << 16 * j + 15 for j in range(hi + 1)]
    return 0xFF * ones, gain, under, above


def _classified(lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int]]:
    # (size, abacus, v2, sign parity, weight) of the dimension of one partition
    # of each conjugate pair of a size in [lo, hi], for exactly the shapes of
    # v2 at most 1, the ones `_sweep` tallies.  The hooks of a conjugate
    # are the same, so it shares v2 and sign: the walk visits only shapes with
    # first part at least their row count, weight 2 when the first part is
    # larger (the conjugate is not visited) and 1 when they are equal or the
    # shape is empty (the conjugate is visited in its own right, or is itself).
    # The dimension is in the determinant form over the first-column hooks h,
    # dim = n! * prod(h_i - h_j, i < j) / prod(h_i!), which checks the hook
    # product of dim_mod4 without sharing its formula.  Rows go in bottom first,
    # parts weakly rising: the row at height r with part p has hook p + r
    # whatever goes above it, so a placed hook adds its factorial and its
    # differences to the hooks below it once, for every partition above it.
    # Each node is a partition, its terms carried without the n! term, which is
    # added per size.  A part of at most half the room left below hi makes a
    # node; a larger one closes the shape, placed only when it lands in range.
    # Most shapes are closing parts, and most have v2 >= 2: one packed
    # comparison over the node's fields (`_closing_tables`) picks out those
    # below 2, and only their set bits are visited.
    v2s, signs, fact = _tables(1 << hi.bit_length())
    vfact = [k - k.bit_count() for k in range(hi + 1)]
    # a difference's valuation above bit 8, its sign parity below.  Field h (16
    # bits) of a node's `diffs` sums these over its hooks y for h - y, distinct
    # and below 80 (`_sweep` refuses hi past ENUMERATION_LIMIT): at most
    # v2(79!) = 74 and 79, so no field carries into the next.  Placing hook h
    # adds row[h], its differences to every higher field.
    pair = [v << 8 | sign for v, sign in zip(v2s, signs)]
    row = [sum(pair[d] << 16 * (h + d) for d in range(1, hi + 1 - h)) for h in range(hi + 1)]
    high, gain, under, above = _closing_tables(vfact)
    # a node: its difference fields, its top part, size, row count, abacus, v2, parity
    stack = [(0, 1, 0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        diffs, low, k, r, x, val, par = pop()
        if k >= lo and low >= r and val + vfact[k] <= 1:
            yield k, x, val + vfact[k], par ^ fact[k], 2 if low > r > 0 else 1
        room = hi - k
        half = room >> 1
        # skip a child that leads to no shape with its first part at least its
        # rows: one of part p <= r, r + 1 rows, whose next part, at most
        # room - p, stays below the r + 2 rows it makes (more parts fall further short)
        cut = room - r - 2
        for p in range(low, half + 1):
            if cut < p <= r:
                continue
            h = p + r
            s = diffs >> 16 * h & 0xFFFF
            push((diffs + row[h], p, k + p, r + 1, x | 1 << h,
                  val - vfact[h] + (s >> 8), par ^ fact[h] ^ (s & 1)))
        # the closing parts: past half, at least the top part and the r + 1
        # rows they make, landing in range
        first = lo - k if lo - k > half else half + 1
        if first <= r:
            first = r + 1
        if first < low:
            first = low
        if first > room:
            continue
        # bit 15 of field h is set for the closing part p = h - r of v2 <= 1
        keep = (under[2 - val] - gain[k - r] - (diffs >> 8 & high)) & above[first + r]
        while keep:
            bit = keep & -keep
            keep ^= bit
            h = (bit.bit_length() >> 4) - 1
            s = diffs >> 16 * h & 0xFFFF
            size = k + h - r
            yield (size, x | 1 << h, val - vfact[h] + (s >> 8) + vfact[size],
                   par ^ fact[h] ^ (s & 1) ^ fact[size], 1 if h == 2 * r + 1 else 2)


# the sweep's tally per size: residues 1, 2, 3, then the self-conjugate shapes
# of dimension 2 mod 4 whose odd part is 1 and 3 mod 4, for the alternating oracle
_tallies: dict[int, tuple[int, int, int, int, int]] = {}


def _sweep(lo: int, hi: int) -> dict[int, tuple[int, int, int, int, int]]:
    # the one gate in front of the p(n) sweep, before any walk; one walk
    # tallies [lo, hi] unless it all is.  Each shape counts with its weight; a
    # self-conjugate one has as many rows as its first part, so weighs 1.
    if hi > ENUMERATION_LIMIT:
        raise SizeLimitError(f"the oracle sweep of all partitions of {size_text(hi)} "
                             f"exceeds the enumeration bound {ENUMERATION_LIMIT}")
    if not all(k in _tallies for k in range(lo, hi + 1)):
        tally = [[0, 0, 0, 0, 0] for _ in range(hi + 1)]
        for k, x, v, par, w in _classified(lo, hi):
            if v == 0:
                tally[k][2 * par] += w
            elif v == 1:
                tally[k][1] += w
                if w == 1 and x == conjugate_mask(x):
                    tally[k][3 + par] += 1
        _tallies.update((k, tuple(tally[k])) for k in range(lo, hi + 1))
    return _tallies


def oracle_counts(n: int) -> CountReport:
    """Classify every partition of n by brute force; fields all carry
    source "oracle".  Past ENUMERATION_LIMIT SizeLimitError is raised."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    c1, c2, c3, _, _ = _sweep(n, n)[n]
    return _count_report(n, c1, c2, c3, None)


def formula_counts(n: int) -> CountReport:
    """Assemble a CountReport from the closed forms; source becomes
    "mixed" when delta needed the odd-stream fallback."""
    value, status = delta(n)
    a1, a3 = _split_signed(n, count_odd(n), value)
    return _count_report(n, a1, a2(n), a3, status)


def clear_caches() -> None:
    """Drop all memoized counting state (mainly for cold-start timing)."""
    _delta.cache_clear()
    a2.cache_clear()
    _tallies.clear()
