"""Towers of 2-cores built by iterating the 2-quotient construction.

Splitting a hook set by parity yields two smaller partitions (the
2-quotient) plus a staircase remainder (the 2-core).  Doing this
recursively gives a 2-core for every node of a binary tree; row k holds
2^k of them.  A 2-core is a staircase, fixed by its height; row k's weight
w_k is the total size of its cores, and size = sum over rows of 2^k * w_k.

Everything runs on runner bead counts of the James-Kerber abacus (*The
Representation Theory of the Symmetric Group*, 1981), a Python int with bit
h set for each first-column hook h.  Node j of row k is a runner, the
positions of one residue mod 2^k, and its two children are the runners mod
2^(k+1) inside it; their bead counts fix the node's staircase.  A packed
runner is the abacus of (), and so is every runner below it.  A tower is
what `_nodes` visits, the runners that are not packed, as heap ids 2^k + j
with their heights, zero included; `_partition` runs the counts back down
through them, both with combs from one table per abacus-width class, built
once.  Conjugating the partition mirrors every row.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import SizeLimitError, size_text
from .partitions import Partition

# the largest |p| `tower` builds: up to 2|p| runners not packed, each a popcount over at most
# 2|p| bits.  Cold at 10000, tower and its inverse take 0.05-0.11 ms each, (10000,) or (1,) * 10000
TOWER_LIMIT = 10_000
# comb tables by width class m, 2^m at or above a width: key 2^j holds a bit every 2^j positions
# below 2^m, key 2^(j+1)'s teeth doubled, no division; kept up to the widths TOWER_LIMIT needs
_combs: dict[int, dict[int, int]] = {}


def staircase(height: int) -> Partition:
    """The 2-core with the given number of rows: (h, h-1, ..., 1)."""
    if height < 0:
        raise ValueError(f"height must be non-negative, got {height}")
    # (4^h - 1) / 3 has h beads at 0, 2, ..., 2h - 2; one shift moves them to the odd positions
    return Partition._of_abacus((1 << 2 * height) // 3 << 1, height * (height + 1) // 2)


def is_two_core(p: Partition) -> bool:
    return p == staircase(len(p))


def _comb_table(width: int) -> dict[int, int]:
    m = (width - 1).bit_length()
    if m in _combs:
        return _combs[m]
    table, comb = {1 << m: 1}, 1
    for j in range(m - 1, -1, -1):
        table[1 << j] = comb = comb | comb << (1 << j)
    return _combs.setdefault(m, table) if width <= 2 * TOWER_LIMIT + 2 else table


def _nodes(x: int) -> Iterator[tuple[int, int]]:
    """(heap id 2^k + j, staircase height) of each runner of the abacus x not packed, top down.

    A node of row k is a runner, residue rho mod 2^k with c beads, not all in its first c
    positions.  Child 0 is the runner at rho + 2^k * (c mod 2), with c0 beads, and child 1
    the other; a comb of period 2^(k+1) picks a child's beads, packed when their bit length
    is at most 2^(k+1) times their count.  The height is d = c - 2 * c0 - (c mod 2) if
    d >= 0, else ~d.  The ids rise, so each parent comes before its children.
    """
    # x & x + 1 is 0 when x = 2^c - 1, the packed root
    level, combs, k = [(1, 0, x.bit_count())] if x & x + 1 else [], _comb_table(x.bit_length()), 0
    while level:
        # a node of row k has a bead past its first position: 2^(k+1) is at most the width class
        bit, period, below, comb = 1 << k, 2 << k, [], combs[2 << k]
        for i, rho, c in level:
            rho0 = rho | (c & 1) << k
            r0 = x >> rho0 & comb
            c0 = r0.bit_count()
            d = c - 2 * c0 - (c & 1)
            yield i, d if d >= 0 else ~d
            if r0.bit_length() > period * c0:
                below.append((2 * i, rho0, c0))
            if (x >> (rho0 ^ bit) & comb).bit_length() > period * (c - c0):
                below.append((2 * i + 1, rho0 ^ bit, c - c0))
        level, k = below, k + 1


def _partition(nodes: Iterable[tuple[int, int]], n: int) -> Partition:
    """Inverse of _nodes: the partition of n whose tower has these nodes, parents first.

    Top down, child 0 gets c0 = floor((c - d) / 2) of a node's c beads, d the height if even
    and ~height if odd.  Each packed runner left is a comb shifted right to the first gap.
    """
    # the root holds n = |p| >= len(p) beads, so no count below is negative.  The first gap is
    # the least leaf end rho + 2^k * c, n - len(p); a leaf end lies above it by at most
    # lambda_1 + len(p) - 1 plus a period, each at most the class of n + 1, so no shift is
    # negative.  runners[i] = (rho, c, 2^k) of node i of row k, set by its parent, popped by it
    runners, combs, x = {1: (0, n, 1)}, _comb_table(2 * n + 2), 0
    for i, height in nodes:
        rho, c, bit = runners.pop(i)
        rho0 = rho | bit if c & 1 else rho
        c0 = (c - (~height if height & 1 else height)) >> 1
        runners[2 * i], runners[2 * i + 1] = (rho0, c0, 2 * bit), (rho0 ^ bit, c - c0, 2 * bit)
    base = (1 << len(combs) - 1) + min([rho + period * c for rho, c, period in runners.values()])
    for rho, c, period in runners.values():
        x |= combs[period] >> base - rho - period * c
    return Partition._of_abacus(x, n)


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
    # node 2^(k+1) + 2^k * side + j of p is node 2^k + j of that side's tower
    halves, sizes = ([], []), [0, 0]
    for i, h in [*_nodes(p.abacus)][1:]:
        k = i.bit_length() - 2
        side = i >> k & 1
        halves[side].append((i - (1 + side << k), h))
        sizes[side] += h * (h + 1) >> 1 << k
    return _partition(halves[0], sizes[0]), _partition(halves[1], sizes[1])


def two_core(p: Partition) -> Partition:
    """The staircase left after removing 2-hooks greedily: the tower's root.

    Only the parity census of the hook set matters: e even elements slide
    down to {0, 2, ..., 2e-2} and o odd ones to {1, 3, ..., 2o-1}.  The
    tests compare it with `t_core(p, 2)`, which removes 2-hooks until none remain.
    """
    return staircase(next(_nodes(p.abacus), (1, 0))[1])


def combine(q0: Partition, q1: Partition, core: Partition) -> Partition:
    """Inverse of (two_quotient, two_core): the core over the towers of q0 and q1 side by side."""
    if not is_two_core(core):
        raise ValueError(f"{core} is not a staircase")
    # node 2^k + j of side s moves to 2^(k+1) + 2^k * s + j; sorted, each parent comes first
    nodes = sorted([(1, len(core)), *((i + (1 + s << i.bit_length() - 1), h) for s, q in
                                      enumerate((q0, q1)) for i, h in _nodes(q.abacus))])
    return _partition(nodes, core.size + 2 * (q0.size + q1.size))


class CoreTower(NamedTuple):
    """A tower's runners that are not packed: (heap id 2^k + j, height), top down.

    Node j of row k has children 2j and 2j + 1; an unlisted runner is packed, height 0.
    `size` is |p|.  `heights` (dense rows), `rows` (their staircases) and `depth` are built
    when read.
    """

    nodes: tuple[tuple[int, int], ...]
    size: int

    @property
    def heights(self) -> tuple[tuple[int, ...], ...]:
        rows = [[0] * (1 << k) for k in range(self.depth)]
        for i, h in self.nodes:
            k = i.bit_length() - 1
            rows[k][i - (1 << k)] = h
        return tuple(map(tuple, rows))

    @property
    def rows(self) -> tuple[tuple[Partition, ...], ...]:
        return tuple(tuple(map(staircase, row)) for row in self.heights)

    @property
    def depth(self) -> int:
        # the last node is in the deepest row; the tower of () is one empty root
        return self.nodes[-1][0].bit_length() if self.nodes else 1


def tower(p: Partition) -> CoreTower:
    """The full tower of 2-cores over p; |p| <= TOWER_LIMIT."""
    if p.size > TOWER_LIMIT:
        raise SizeLimitError(f"|p| = {size_text(p.size)} exceeds the tower bound "
                             f"TOWER_LIMIT = {TOWER_LIMIT}")
    return CoreTower(tuple(_nodes(p.abacus)), p.size)


def tower_to_partition(t: CoreTower) -> Partition:
    return _partition(t.nodes, t.size)


def row_weights(t: CoreTower) -> tuple[int, ...]:
    weights = [0] * t.depth
    for i, h in t.nodes:
        weights[i.bit_length() - 1] += h * (h + 1) >> 1
    return tuple(weights)


def classify_by_tower(p: Partition) -> str:
    """Residue class of the dimension, from the sum of the tower's row weights.

    v2(f^p) = sum of w_k - s(n), s(n) the binary digit sum of n = |p| (Macdonald, *Bull.
    LMS* 3, 1971): as sum of 2^k * w_k = n, carrying 2 at row j to 1 at row j + 1 until
    every weight is 0 or 1 ends at n's binary digits, and each carry lowers sum of w_k by 1.
    "odd" when no carry is needed, "two_mod_4" for one and "other" (divisible by 4) as soon
    as the running sum passes s(n) + 1.
    """
    digits, total = p.size.bit_count(), 0
    for _, h in _nodes(p.abacus):
        total += h * (h + 1) >> 1
        if total > digits + 1:
            return "other"
    return "odd" if total == digits else "two_mod_4"


def staircase_text(height: int) -> str:
    """str(staircase(height)) without building it: "h,h-1,...,1", "-" for height 0."""
    return ",".join(map(str, range(height, 0, -1))) or "-"
