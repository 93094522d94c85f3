"""Beta-sets: first-column hook sets and the abacus moves on them.

A beta-set is a finite set of distinct non-negative integers.  Every
partition has a canonical one (its first-column hook lengths), and two
beta-sets describe the same partition exactly when one is a shift of the
other.  Removing a t-hook from a partition is the move h -> h - t on any
of its beta-sets, which is what makes t-cores computable without touching
the diagram.

The int helpers below work on the abacus form: a Python int with bit h
set for each element h (James and Kerber, 1981).  A shift is a left
shift and a t-hook removal moves one bit down by t.  The codec is in
`partitions`: `Partition.abacus` is the canonical abacus, whose bit 0
is clear, `parts_of` reads it back and `normalize_mask` drops the beads
packed at the bottom.  `BetaSet` is the view of an abacus: it checks the
elements a caller gives it once and keeps them as `mask`.  Every move
below goes through the int helpers and views the mask they return
unchecked.  A partition built here gets its size from `abacus_size`, so
its parts are decoded only when read.  No other module of the package
imports this one.
"""

from __future__ import annotations

import operator
from itertools import count
from typing import Iterable

from .errors import at_least, size_text
from .partitions import Partition, normalize_mask


class BetaSet:
    """Distinct non-negative integers, checked once and kept as the abacus `mask`."""

    __slots__ = ("mask",)

    def __init__(self, elements: Iterable[int] = ()):
        mask = 0
        for x in map(operator.index, elements):
            if x < 0:
                at_least("beta-set elements", x, 0)
            if mask >> x & 1:
                raise ValueError(f"beta-set elements must be distinct, got {size_text(x)} twice")
            mask |= 1 << x
        self.mask = mask


def _view(x: int) -> BetaSet:
    view = object.__new__(BetaSet)
    view.mask = x
    return view


def first_column_hooks(p: Partition) -> BetaSet:
    """The canonical beta-set of p: hook lengths of the first column.

    >>> bin(first_column_hooks(Partition((2, 2, 2))).mask)
    '0b11100'
    """
    return _view(p.abacus)


def shift(x: BetaSet, r: int) -> BetaSet:
    """Add r to every element and fill in the new low positions 0..r-1."""
    at_least("shift amount", r, 0)
    return _view(shift_mask(x.mask, r))


def to_partition(x: BetaSet) -> Partition:
    """The partition a beta-set describes; inverse of first_column_hooks.

    >>> to_partition(BetaSet((9, 6, 4, 2, 1))).parts
    (5, 3, 2, 1, 1)
    """
    return Partition._of_abacus(normalize_mask(x.mask), abacus_size(x.mask))


def t_core(p: Partition, t: int) -> Partition:
    """Remove t-hooks until none remain; the order taken does not matter.

    >>> t_core(Partition((5, 5, 5, 4, 2)), 5).parts
    (3, 1, 1, 1)
    """
    at_least("hook size", t, 1)
    if t >= p.abacus.bit_length():  # no hook is as long as the abacus is wide
        return p
    core = t_core_mask(p.abacus, t)
    return Partition._of_abacus(core, abacus_size(core))


def abacus_size(x: int) -> int:
    """|p| for any abacus of p: sum of bead positions - k(k-1)/2 for k beads.

    That is one count per (bead, empty position below it): the run of 0s
    below the j-th bead from the top counts j times.
    """
    return sum(map(operator.mul, count(), map(len, format(x, "b").split("1"))))


def shift_mask(x: int, r: int) -> int:
    """The abacus of shift(x, r): every bead moves up r and 0..r-1 fill."""
    return (x << r) | ((1 << r) - 1)


def t_core_mask(x: int, t: int) -> int:
    """Canonical abacus of the t-core: slide beads down t until none can move.

    Each round moves every bead h >= t above an empty h - t.  No two land
    on one position, so a round is a sequence of legal t-hook removals.
    """
    while True:
        movable = x & ~(x << t) & -(1 << t)
        if not movable:
            return normalize_mask(x)
        x ^= movable | (movable >> t)
