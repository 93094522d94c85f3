"""Towers of 2-cores built by iterating the 2-quotient construction.

Splitting a hook set by parity yields two smaller partitions (the
2-quotient) plus a staircase remainder (the 2-core).  Doing this
recursively hangs a 2-core on every node of a binary tree; row k holds
2^k of them, and the total size satisfies

    size = sum over rows of 2^k * (sum of core sizes in row k).

The row weights of that tree decide the dimension's residue mod 4, which
is why the whole structure earns its keep here.

Everything runs on the James-Kerber abacus (*The Representation Theory
of the Symmetric Group*, 1981) held as a Python int, bit h set for each
first-column hook h.  The 2-quotient is the parity split of that int
padded to an even number of beads: even beads (halved) give component 0
and odd beads component 1; under this labelling, conjugating the
partition mirrors every row of the tower.  The 2-core is the staircase
whose height the popcounts of the two halves fix.  One walk over the
levels yields each row's heights; partitions are built only at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .beta_sets import core_height, interleave, mask_of, normalize_mask, parity_split
from .errors import SizeLimitError, size_text
from .partitions import Partition

# the largest |p| `tower` builds: its abacus has |p| + len(p) bits, its rows ~2|p| nodes
TOWER_LIMIT = 10_000


@lru_cache(maxsize=None)
def staircase(height: int) -> Partition:
    """The 2-core with the given number of rows: (h, h-1, ..., 1), built once."""
    if height < 0:
        raise ValueError(f"height must be non-negative, got {height}")
    return Partition._trusted(tuple(range(height, 0, -1)))


def is_two_core(p: Partition) -> bool:
    return p.parts == tuple(range(len(p), 0, -1))


def _split(x: int) -> tuple[int, int, int]:
    """2-quotient masks and 2-core height of the canonical abacus x."""
    x0, x1 = parity_split(x)
    height = core_height(x0.bit_count(), x1.bit_count())
    return normalize_mask(x0), normalize_mask(x1), height


def _rows(x: int) -> Iterator[list[int]]:
    """Staircase heights of each tower row over the abacus x, top row first."""
    level = [x]
    while any(level):
        heights, below = [], []
        for y in level:
            q0, q1, height = _split(y) if y else (0, 0, 0)
            heights.append(height)
            below += (q0, q1)
        yield heights
        level = below


def two_quotient(p: Partition) -> tuple[Partition, Partition]:
    """Split the hook set of p by parity into two smaller partitions.

    The hook set is padded to even cardinality first, so the result does
    not depend on how the diagram happened to be written down.

    >>> a, b = two_quotient(Partition((3, 3, 3)))
    >>> (a.parts, b.parts)
    ((1, 1), (2,))
    """
    q0, q1, _ = _split(mask_of(p))
    return Partition._of_abacus(q0), Partition._of_abacus(q1)


def two_core(p: Partition) -> Partition:
    """The staircase left after removing 2-hooks greedily.

    Only the parity census of the hook set matters: e even elements slide
    down to {0, 2, ..., 2e-2} and o odd ones to {1, 3, ..., 2o-1}.  The
    tests compare it with `t_core(p, 2)`, which removes 2-hooks until none remain.
    """
    return staircase(_split(mask_of(p))[2])


def combine(q0: Partition, q1: Partition, core: Partition) -> Partition:
    """Inverse of (two_quotient, two_core): rebuild the partition.

    The staircase height fixes the imbalance d between odd and even slots
    (d = height for even heights, -(height + 1) for odd ones); the two
    components are then interleaved as evens and odds of one hook set.
    """
    if not is_two_core(core):
        raise ValueError(f"{core} is not a staircase")
    return Partition._of_abacus(interleave(mask_of(q0), mask_of(q1), len(core)))


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
    rows = tuple(tuple(map(staircase, heights)) for heights in _rows(mask_of(p)))
    return CoreTower._trusted(rows or ((staircase(0),),))


def tower_to_partition(t: CoreTower) -> Partition:
    level = [mask_of(node) for node in t.rows[-1]]
    for row in reversed(t.rows[:-1]):
        level = [interleave(level[2 * j], level[2 * j + 1], len(node))
                 for j, node in enumerate(row)]
    return Partition._of_abacus(level[0])


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
    w = [sum(h * (h + 1) // 2 for h in heights) for heights in _rows(mask_of(p))]
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
