"""Towers of 2-cores built by iterating the 2-quotient construction.

Splitting a hook set by parity yields two smaller partitions (the
2-quotient) plus a staircase remainder (the 2-core).  Doing this
recursively hangs a 2-core on every node of a binary tree; row k holds
2^k of them, and the total size satisfies

    size = sum over rows of 2^k * (sum of core sizes in row k).

The row weights of that tree decide the dimension's residue mod 4, which
is why the whole structure earns its keep here.

Everything runs on runner bead counts of the James-Kerber abacus (*The
Representation Theory of the Symmetric Group*, 1981), a Python int with
bit h set for each first-column hook h.  Node j of row k is a runner,
the positions of one residue mod 2^k, and its two children are the
runners mod 2^(k+1) inside it; their bead counts fix the node's
staircase.  `_rows` reads the heights off the abacus and `_parts` runs
the counts back down from them.  Conjugating the partition mirrors
every row.  Partitions are built only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterator

from .errors import SizeLimitError, size_text
from .partitions import Partition, mask_of

# the largest |p| `tower` builds: its rows hold up to about 2|p| nodes, and each
# node that holds a bead costs a popcount over the abacus of at most |p| + 1 bits.
# Cold at 10000, `tower` takes 0.01 s for (10000,) and 0.03-0.05 s for (1,) * 10000
TOWER_LIMIT = 10_000


@lru_cache(maxsize=None)
def staircase(height: int) -> Partition:
    """The 2-core with the given number of rows: (h, h-1, ..., 1), built once."""
    if height < 0:
        raise ValueError(f"height must be non-negative, got {height}")
    return Partition._trusted(tuple(range(height, 0, -1)))


def is_two_core(p: Partition) -> bool:
    return p.parts == tuple(range(len(p), 0, -1))


def _rows(x: int, n: int) -> Iterator[list[int]]:
    """Staircase heights of each tower row over the canonical abacus x of a partition of n.

    A node of row k is a runner (residue rho mod 2^k, bead count c); the
    root holds every bead.  Child 0 is the runner at rho + 2^k * (c mod 2)
    and child 1 the other; one popcount against a comb of period 2^(k+1)
    counts child 0's c0 beads.  d = c - 2 * c0 - (c mod 2) is even, and the
    height is d if d >= 0, else -d - 1.  The rows stop once their weights,
    row k counting 2^k times, add up to n.
    """
    level, width, k, weighed = [(0, x.bit_count())], x.bit_length(), 0, 0
    while weighed < n:
        period = 2 << k
        comb = ((1 << period * (width // period + 1)) - 1) // ((1 << period) - 1)
        heights, below = [], []
        for rho, c in level:
            rho0 = rho | (c & 1) << k
            c0 = (x >> rho0 & comb).bit_count() if c else 0
            d = c - 2 * c0 - (c & 1)
            heights.append(d if d >= 0 else -d - 1)
            below += ((rho0, c0), (rho0 ^ 1 << k, c - c0))
        weighed += sum(h * (h + 1) >> 1 for h in heights) << k
        yield heights
        level, k = below, k + 1


def _parts(rows: list[list[int]]) -> tuple[int, ...]:
    """Inverse of _rows: the parts whose tower rows have these heights.

    Top down, d = height for an even height and -height - 1 for an odd
    one, and child 0 gets c0 = (c - (c mod 2) - d) / 2 of the c beads.
    """
    n = sum(sum(h * (h + 1) >> 1 for h in row) << k for k, row in enumerate(rows))
    # the root holds n beads, so each count below is a real runner's, none negative:
    # p has an abacus of any count >= len(p), and n = |p| >= len(p).  A smaller root
    # count would invert too, its beads shifted below 0, a shift the parts ignore
    level = [(0, n)]
    for k, row in enumerate(rows):
        below = []
        for (rho, c), height in zip(level, row):
            rho0 = rho | (c & 1) << k
            c0 = (c - (c & 1) - (-height - 1 if height & 1 else height)) >> 1
            below += ((rho0, c0), (rho0 ^ 1 << k, c - c0))
        level = below
    # below the last row every node is empty and its runner packed, beads at
    # rho, rho + period, ... under rho + c * period.  Every position below the
    # least such bound, the gap, holds a bead for a part of size 0; a bead b
    # above the gap with i beads between them gives the part b - gap - i
    period = 1 << len(rows)
    gap = min(rho + c * period for rho, c in level)
    beads = sorted(b for rho, c in level
                   for b in range(gap + (rho - gap) % period, rho + c * period, period))
    return tuple([b - gap - i for i, b in enumerate(beads)][::-1])


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
    rows = [*_rows(mask_of(p), p.size)][1:]
    return (Partition._trusted(_parts([row[:len(row) // 2] for row in rows])),
            Partition._trusted(_parts([row[len(row) // 2:] for row in rows])))


def two_core(p: Partition) -> Partition:
    """The staircase left after removing 2-hooks greedily: the tower's root.

    Only the parity census of the hook set matters: e even elements slide
    down to {0, 2, ..., 2e-2} and o odd ones to {1, 3, ..., 2o-1}.  The
    tests compare it with `t_core(p, 2)`, which removes 2-hooks until none remain.
    """
    return staircase(next(_rows(mask_of(p), p.size), [0])[0])


def combine(q0: Partition, q1: Partition, core: Partition) -> Partition:
    """Inverse of (two_quotient, two_core): the core over the rows of q0 and q1 side by side."""
    if not is_two_core(core):
        raise ValueError(f"{core} is not a staircase")
    # the shallower side is padded with empty rows
    below = zip_longest(_rows(mask_of(q0), q0.size), _rows(mask_of(q1), q1.size))
    rows = [[len(core)], *((r0 or [0] * len(r1)) + (r1 or [0] * len(r0)) for r0, r1 in below)]
    return Partition._trusted(_parts(rows))


@dataclass(frozen=True, slots=True)
class CoreTower:
    """Rows of 2-cores; row k has 2^k entries, children of node j are 2j, 2j+1."""

    rows: tuple[tuple[Partition, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        if not rows:
            raise ValueError("a tower needs at least one row")
        for k, row in enumerate(rows):
            if len(row) != 1 << k:
                raise ValueError(f"row {k} has {len(row)} entries, expected {1 << k}")
            for node in row:
                if not is_two_core(node):
                    raise ValueError(f"row {k} entry {node} is not a 2-core")
        if len(rows) > 1 and not any(node.size for node in rows[-1]):
            raise ValueError("trailing all-empty row; trim before constructing")
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Partition, ...], ...]) -> "CoreTower":
        # for rows the package built itself, tuples of staircases of the right
        # lengths with a nonempty last row by construction: __post_init__ is skipped
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def depth(self) -> int:
        return len(self.rows)


def tower(p: Partition) -> CoreTower:
    """The full tower of 2-cores over p, trailing empty rows trimmed; |p| <= TOWER_LIMIT."""
    if p.size > TOWER_LIMIT:
        raise SizeLimitError(f"|p| = {size_text(p.size)} exceeds the tower bound "
                             f"TOWER_LIMIT = {TOWER_LIMIT}")
    rows = tuple(tuple(map(staircase, heights)) for heights in _rows(mask_of(p), p.size))
    return CoreTower._trusted(rows or ((staircase(0),),))


def tower_to_partition(t: CoreTower) -> Partition:
    return Partition._trusted(_parts([[len(node) for node in row] for row in t.rows]))


def row_weights(t: CoreTower) -> tuple[int, ...]:
    return tuple(sum(node.size for node in row) for row in t.rows)


def classify_by_tower(p: Partition) -> str:
    """Residue class of the dimension, read off the tower's row weights.

    "odd" when every row weighs at most 1; "two_mod_4" when exactly one
    row j weighs 2 or 3, row j + 1 is empty or absent and every other row
    weighs at most 1; "other" covers everything divisible by 4.
    """
    # The size identity sum(w[k] * 2^k) = n makes an all-0/1 weight vector
    # n's binary digits, and the one heavy row j with row j + 1 empty is
    # those digits with a 1 at j + 1 traded for an extra 2 at j.
    w = [sum(h * (h + 1) // 2 for h in heights) for heights in _rows(mask_of(p), p.size)]
    heavy = [k for k, weight in enumerate(w) if weight > 1]
    if not heavy:
        return "odd"
    if len(heavy) == 1:
        j = heavy[0]
        if w[j] <= 3 and (j + 1 == len(w) or w[j + 1] == 0):
            return "two_mod_4"
    return "other"


def render_tower(t: CoreTower) -> list[str]:
    """One string per row, nodes separated by ' | ', empty cores as '-'."""
    return [" | ".join(str(node) for node in row) for row in t.rows]
