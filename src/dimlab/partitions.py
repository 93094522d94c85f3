"""Integer partitions, their abacus, hook lengths, and tableau dimensions exact and mod 4.

`dim_exact` and `dim_mod4` both read the hook product n! / prod of hook
lengths off the abacus: one exactly, over the row-major list of
`hook_lengths`, one through the tables of `binary_arith._tables`, adding
each hook's valuation and sign as its pass over the abacus digits finds
it.  `Partition(...)` and `from_text` check their input;
`Partition._of_abacus` builds the package's own from an abacus and its
size, and `parents._leaves` builds the odd stream's leaves, each with the
class its walk derived.  No dimension decodes parts.  `parts_of`,
`conjugate_mask` and `normalize_mask` are the abacus codec.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .binary_arith import _tables
from .errors import SizeLimitError, at_least, quoted, size_text

DIM_EXACT_LIMIT = 60
# the largest n that enumerate_partitions, all_parents and the p(n) sweep of
# enumeration._sweep take.  The sweep's 16-bit fields hold its sums, and its
# packed test of a node's closing parts, only below 80, and a cold _sweep(80)
# took 6.4 s, the median of 10 fresh processes (0.017 s to 40 and 0.42 s to 60,
# medians of 5; 2-core Xeon, Python 3.11; BENCH_46.json)
ENUMERATION_LIMIT = 80


def _natural(text: str) -> int:
    # ASCII digits only, around optional whitespace: int() would also take
    # signs, underscores and digits of other scripts
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{quoted(text)} is not a decimal number")
    try:
        return int(digits)
    except ValueError:
        # only Python's cap on decimal-to-int conversion refuses ASCII digits
        raise SizeLimitError(f"a {len(digits)}-digit number is past Python's int conversion "
                             f"limit of {sys.get_int_max_str_digits()} digits") from None


class Partition:
    """A weakly decreasing tuple of positive integers.

    The empty partition is Partition(()).  Text form is comma separated
    parts, with "-" standing for the empty partition.  `abacus` has bit h
    set per first-column hook h.  Every partition is built with its size;
    a checked partition encodes its abacus, and one built from an abacus
    decodes its parts, on first read only.

    >>> bin(Partition((2, 2, 2)).abacus)
    '0b11100'
    """

    __slots__ = ("parts", "size", "abacus", "_dim")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(operator.index, parts))
        for i, p in enumerate(parts, 1):
            if p < 1:
                at_least(f"part {i}", p, 1)
            if i > 1 and p > parts[i - 2]:
                raise ValueError(f"parts must be weakly decreasing, got {size_text(p)} "
                                 f"after {size_text(parts[i - 2])} at part {i}")
        self.parts = parts
        self.size = sum(parts)
        self._dim = None

    @classmethod
    def _of_abacus(cls, x: int, size: int) -> "Partition":
        # unchecked, for a canonical abacus the package built, bit 0 clear, and its size;
        # parts are unset until __getattr__.  It carries no class, so dim_mod4 computes one
        p = object.__new__(cls)
        p.abacus, p._dim, p.size = x, None, size
        return p

    def __getattr__(self, name: str):
        # reached only for an unset slot: the parts of one built from an abacus, or the abacus
        # of a checked partition, left unset by __init__: a part of 10^20 has no abacus in memory
        if name == "parts":
            self.parts = parts_of(self.abacus)
        elif name == "abacus":
            # the inverse of parts_of, top down: a bead per part, then a 0 per unit it drops
            # to the next part (the last to 0); base 2 converts in linear time, with no limit
            parts = self.parts
            self.abacus = int("".join("1" + "0" * (a - b) for a, b in
                                      zip(parts, (*parts[1:], 0))) or "0", 2)
        else:
            raise AttributeError(f"'Partition' object has no attribute {name!r}")
        return getattr(self, name)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse "4,3,3,1"; "-" or "" gives the empty partition.

        Each part is ASCII digits, with whitespace around it ignored."""
        text = text.strip()
        if text in ("-", ""):
            return cls(())
        try:
            return cls(_natural(piece) for piece in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition text {quoted(text)}: {exc}") from None

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers diagram: column lengths become rows.

    >>> conjugate(Partition((4, 3, 3, 1))).parts
    (4, 3, 3, 1)
    """
    return Partition._of_abacus(conjugate_mask(p.abacus), p.size)


def hook_lengths(p: Partition) -> list[int]:
    """All hook lengths, row-major, read off the abacus.

    The row of bead b lists b - g for each empty position g below b,
    lowest first; the top bead's row comes first.
    """
    gaps, rows = [], []
    for h, digit in enumerate(format(p.abacus, "b")[::-1]):
        if digit == "0":
            gaps.append(h)
        else:
            rows.append([h - g for g in gaps])
    out = []
    for row in reversed(rows):
        out += row
    return out


def dim_exact(p: Partition, limit: int = DIM_EXACT_LIMIT) -> int:
    """Number of standard Young tableaux of shape p, by the hook formula.

    Exact big-integer value; refuses |p| > limit so brute-force sweeps stay
    desk-scale.

    >>> dim_exact(Partition((3, 2)))
    5
    """
    if p.size > limit:
        raise SizeLimitError(f"|p| = {size_text(p.size)} exceeds the dim_exact bound {limit}")
    denom = 1
    for h in hook_lengths(p):
        denom *= h
    numer = math.factorial(p.size)
    assert numer % denom == 0
    return numer // denom


class DimClass(NamedTuple):
    """Dimension of a shape as (2-adic valuation, sign of the odd part)."""

    v2: int
    sign: int


def parts_of(x: int) -> tuple[int, ...]:
    """Inverse of Partition.abacus: each bead's part is the count of empty positions below it.

    The binary digits split at the beads into runs of empty positions; a
    part sums the runs below its bead.  Beads packed at the bottom stand
    for parts of size 0 and are dropped.

    >>> parts_of(0b1001010110)
    (5, 3, 2, 1, 1)
    """
    runs = format(x, "b").rstrip("1").split("1")[:0:-1]
    return (*accumulate(map(len, runs)),)[::-1]


def conjugate_mask(x: int) -> int:
    """The canonical abacus of the conjugate: the gaps of x within its width, read top down.

    >>> bin(conjugate_mask(0b11100))  # (2, 2, 2) -> (3, 3)
    '0b11000'
    """
    width = x.bit_length()
    gaps = ~x & ((1 << width) - 1)
    return int(format(gaps, f"0{width}b")[::-1], 2) if width else 0


def normalize_mask(x: int) -> int:
    """Drop the beads packed at the bottom, which stand for parts of size 0."""
    return x >> ((x + 1) & ~x).bit_length() - 1


def dim_mod4(p: Partition) -> DimClass:
    """Valuation and odd-part sign of dim_exact(p), without big integers.

    The hook-product form n! / prod of hook lengths: the valuation and sign
    of n! and of each hook, read from `binary_arith._tables` at the power of
    two above n.  The hooks are those `hook_lengths` lists and `dim_exact`
    multiplies, taken in one pass over the abacus digits: the row of bead h
    is h - g for each empty position g below it, and each hook is summed as
    it is found, with no list of rows.  The oracle sweep `enumeration._classified`, which walks one
    partition of each conjugate pair of every size from 0 to its bound and
    yields those of valuation at most 1, uses the determinant form on the
    first-column hooks instead, so the two check each other.

    A leaf of `enumerate_odd_partitions` carries the class that the
    walk's parent-sign step gave it, and that class is returned as it
    is.  The tests therefore take their reference side from the checked
    twin `Partition(leaf.parts)`, which carries nothing.

    >>> dim_mod4(Partition((2, 2)))
    DimClass(v2=1, sign=1)
    """
    if p._dim is not None:
        return p._dim
    n = p.size
    vt, st, ft = _tables(1 << n.bit_length())
    val = n - n.bit_count()
    par = ft[n]
    gaps = []
    for h, digit in enumerate(format(p.abacus, "b")[::-1]):
        if digit == "0":
            gaps.append(h)
        else:
            for g in gaps:
                d = h - g
                val -= vt[d]
                par ^= st[d]
    return DimClass(val, -1 if par else 1)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first.

    Refuses n > ENUMERATION_LIMIT with SizeLimitError, and n < 0 with
    ValueError, when called, not when the stream is first read.

    >>> [str(p) for p in enumerate_partitions(4)]
    ['4', '3,1', '2,2', '2,1,1', '1,1,1,1']
    """
    at_least("n", n, 0)
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"n = {size_text(n)} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    return _partitions(n) if n else iter((Partition._of_abacus(0, 0),))


def _partitions(n: int) -> Iterator[Partition]:
    # a node: the room left, the largest part it may take, base = n - 1 - i for
    # its next part i and its abacus so far.  Part i is bead part + base of an
    # abacus of n beads; the n - i beads of the parts of size 0 would fill the
    # bottom, and one shift drops them.  Children are pushed smallest part first,
    # so they come off the stack largest first, in reverse-lexicographic order
    stack = [(n, n, n - 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        remaining, cap, base, x = pop()
        if remaining <= cap:
            # the part that closes the shape, the largest child, comes out at once
            yield Partition._of_abacus((x | 1 << (remaining + base)) >> base, n)
            cap = remaining - 1
        for first in range(1, cap + 1):
            push((remaining - first, first, base - 1, x | 1 << (first + base)))
