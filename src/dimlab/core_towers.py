"""Towers of 2-cores built by iterating the 2-quotient construction.

Splitting a hook set by parity yields two smaller partitions (the
2-quotient) plus a staircase remainder (the 2-core).  Doing this
recursively gives a 2-core for every node of a binary tree; row k holds
2^k of them.  A 2-core is a staircase, fixed by its height, so a tower is
its rows of int heights.  The row weights decide the dimension's residue
mod 4, and size = sum over rows of 2^k * (sum of core sizes in row k).

Everything runs on runner bead counts of the James-Kerber abacus (*The
Representation Theory of the Symmetric Group*, 1981), a Python int with bit
h set for each first-column hook h.  Node j of row k is a runner, the
positions of one residue mod 2^k, and its two children are the runners mod
2^(k+1) inside it; their bead counts fix the node's staircase.  `_rows`
reads the heights off the abacus, visiting only the runners that are not
packed.  `_parts` runs the counts back down through the nodes with a nonzero
height below them and packs every other runner into one abacus.  Conjugating
the partition mirrors every row.  Staircase partitions are built only when
`CoreTower.rows` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, zip_longest
from typing import Iterator, Sequence

from .errors import SizeLimitError, size_text
from .partitions import Partition, normalize_mask

# the largest |p| `tower` builds: up to 2|p| runners not packed, each a popcount over at most
# 2|p| bits.  Cold at 10000, tower takes 0.4-0.5 ms for (10000,) and 2.4-3.7 ms for (1,) * 10000
TOWER_LIMIT = 10_000


def staircase(height: int) -> Partition:
    """The 2-core with the given number of rows: (h, h-1, ..., 1)."""
    if height < 0:
        raise ValueError(f"height must be non-negative, got {height}")
    # (4^h - 1) / 3 has h beads at 0, 2, ..., 2h - 2; one shift moves them to the odd positions
    return Partition._of_abacus((1 << 2 * height) // 3 << 1, height * (height + 1) // 2)


def is_two_core(p: Partition) -> bool:
    return p == staircase(len(p))


def _rows(x: int) -> Iterator[list[int]]:
    """Staircase heights of each tower row over the canonical abacus x.

    A node of row k is a runner, residue rho mod 2^k with c beads, kept as (index j in
    the row, rho, c) only while it is not packed, its beads not all in its first c
    positions: a packed runner is the abacus of (), and so is every runner below it.
    Child 0 is the runner at rho + 2^k * (c mod 2), with c0 beads, and child 1 the other;
    a comb of period 2^(k+1) picks a child's beads, packed when their bit length is at most
    2^(k+1) times their count.  The height is d = c - 2 * c0 - (c mod 2) if d >= 0, else ~d.
    """
    # x & x + 1 is 0 when x = 2^c - 1, the packed root
    level, width, k = [(0, 0, x.bit_count())] if x & x + 1 else [], x.bit_length(), 0
    while level:
        bit, period = 1 << k, 2 << k
        comb = ((1 << period * (width // period + 1)) - 1) // ((1 << period) - 1)
        heights, below = [0] * bit, []
        for j, rho, c in level:
            rho0 = rho | (c & 1) << k
            r0 = x >> rho0 & comb
            c0 = r0.bit_count()
            d = c - 2 * c0 - (c & 1)
            if d:
                heights[j] = d if d > 0 else ~d
            if r0.bit_length() > period * c0:
                below.append((2 * j, rho0, c0))
            if (x >> (rho0 ^ bit) & comb).bit_length() > period * (c - c0):
                below.append((2 * j + 1, rho0 ^ bit, c - c0))
        yield heights
        level, k = below, k + 1


def _parts(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Inverse of _rows: the canonical abacus and the size of the partition with these rows.

    Top down over the runners with a nonzero height at or below them, child 0 gets
    c0 = floor((c - d) / 2) of the c beads, d being the height if it is even and ~height
    if it is odd.  Every other runner (rho, c > 0) of row k is packed, its beads the digits
    rho, rho + 2^k, ... of one abacus; normalize_mask drops its packed bottom, parts of size 0.
    """
    # n, and the heap ids 2^k + j of the nodes with a nonzero height at or below them, each
    # walked up to the first one already found; 0, the root's parent, stops the walk
    n, live = 0, {0}
    for k, row in enumerate(rows):
        for i in compress(count(1 << k), row):
            h = row[i ^ 1 << k]
            n += h * (h + 1) >> 1 << k
            while i not in live:
                live.add(i)
                i >>= 1
    # the root holds n = |p| >= len(p) beads, so no count below is negative, and the top bead
    # is lambda_1 + n - 1 < 2n; a smaller root count would push beads off the runners, below 0
    level, digits = [(1, 0, n)], bytearray(b"0") * (2 * n + 1)
    for k, row in enumerate([*rows, []]):
        below, period = [], 1 << k
        for i, rho, c in level:
            if i in live:
                height = row[i ^ period]
                rho0 = rho | (c & 1) << k
                c0 = (c - (~height if height & 1 else height)) >> 1
                below += ((2 * i, rho0, c0), (2 * i + 1, rho0 ^ period, c - c0))
            elif c:
                digits[rho:rho + c * period:period] = b"1" * c
        level = below
    return normalize_mask(int(digits[::-1], 2)), n


def two_quotient(p: Partition) -> tuple[Partition, Partition]:
    """Split the hook set of p by parity into two smaller partitions.

    They are the even and the odd runner of any abacus of p, the even one
    first when the abacus holds an even count of beads, so the result does not
    depend on how the diagram happened to be written down.  Each takes
    one half of every tower row below the root.

    >>> a, b = two_quotient(Partition((3, 3, 3)))
    >>> (a.parts, b.parts)
    ((1, 1), (2,))
    """
    rows = [*_rows(p.abacus)][1:]
    return (Partition._of_abacus(*_parts([row[:len(row) // 2] for row in rows])),
            Partition._of_abacus(*_parts([row[len(row) // 2:] for row in rows])))


def two_core(p: Partition) -> Partition:
    """The staircase left after removing 2-hooks greedily: the tower's root.

    Only the parity census of the hook set matters: e even elements slide
    down to {0, 2, ..., 2e-2} and o odd ones to {1, 3, ..., 2o-1}.  The
    tests compare it with `t_core(p, 2)`, which removes 2-hooks until none remain.
    """
    return staircase(next(_rows(p.abacus), [0])[0])


def combine(q0: Partition, q1: Partition, core: Partition) -> Partition:
    """Inverse of (two_quotient, two_core): the core over the rows of q0 and q1 side by side."""
    if not is_two_core(core):
        raise ValueError(f"{core} is not a staircase")
    # the shallower side is padded with empty rows
    below = zip_longest(_rows(q0.abacus), _rows(q1.abacus))
    rows = [[len(core)], *((r0 or [0] * len(r1)) + (r1 or [0] * len(r0)) for r0, r1 in below)]
    return Partition._of_abacus(*_parts(rows))


@dataclass(frozen=True)
class CoreTower:
    """Staircase heights of the 2-cores; row k has 2^k, children of node j are 2j, 2j+1.

    Only the heights are stored.  `rows` builds the staircase partitions each
    time it is read.  Not slotted: the regenerated class of a slotted frozen
    dataclass raises TypeError, not AttributeError, when a property is assigned.
    """

    heights: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> tuple[tuple[Partition, ...], ...]:
        return tuple(tuple(map(staircase, row)) for row in self.heights)

    @property
    def depth(self) -> int:
        return len(self.heights)


def tower(p: Partition) -> CoreTower:
    """The full tower of 2-cores over p, trailing empty rows trimmed; |p| <= TOWER_LIMIT."""
    if p.size > TOWER_LIMIT:
        raise SizeLimitError(f"|p| = {size_text(p.size)} exceeds the tower bound "
                             f"TOWER_LIMIT = {TOWER_LIMIT}")
    return CoreTower(tuple(map(tuple, _rows(p.abacus))) or ((0,),))


def tower_to_partition(t: CoreTower) -> Partition:
    return Partition._of_abacus(*_parts(t.heights))


def row_weights(t: CoreTower) -> tuple[int, ...]:
    return tuple(sum(h * (h + 1) for h in row) >> 1 for row in t.heights)


def classify_by_tower(p: Partition) -> str:
    """Residue class of the dimension, read off the tower's row weights.

    "odd" when every row weighs at most 1; "two_mod_4" when exactly one
    row j weighs 2 or 3, row j + 1 is empty or absent and every other row
    weighs at most 1; "other" covers everything divisible by 4.
    """
    # The size identity sum(w[k] * 2^k) = n makes an all-0/1 weight vector n's binary
    # digits, and the one heavy row j with row j + 1 empty is those digits with a 1 at
    # j + 1 traded for an extra 2 at j.  Rows are read only until the answer is fixed.
    heavy = None
    for k, heights in enumerate(_rows(p.abacus)):
        weight = sum(h * (h + 1) for h in heights if h) >> 1
        if weight > 3 or weight > 1 and heavy is not None or weight and heavy == k - 1:
            return "other"
        heavy = k if weight > 1 else heavy
    return "odd" if heavy is None else "two_mod_4"


def staircase_text(height: int) -> str:
    """str(staircase(height)) without building it: "h,h-1,...,1", "-" for height 0."""
    return ",".join(map(str, range(height, 0, -1))) or "-"


def render_tower(t: CoreTower) -> list[str]:
    """One string per row, nodes separated by ' | ', empty cores as '-'."""
    return [" | ".join(map(staircase_text, row)) for row in t.heights]
