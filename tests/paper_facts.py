"""Test-side statements of paper facts that no package code runs.

Each function restates a fact the tests check against the package: the
parity gap of an abacus (acceptance criterion 08), the binomial residue
tallies (criterion 13), the diagonal hooks of a shape, the conjugate and
every hook length read off the column heights and the partitions of n
listed by their parts, where the package runs all three on the abacus,
the abacus read off the first column's hooks, where the package sets
one bead per part, the parent-sign step counted per parent on the
parent's abacus, which the package reads off its core's step masks
instead, with the hook each parent adds, and the
2-quotient as a parity split of the abacus with its string round trips,
level by level, which the package reads off runner bead counts instead,
the tower's residue class read off all its row weights, where the
package sums the weights of its nodes and stops once that sum fixes the
class, the tower built from its dense heights, where the package stores
the nodes that are not packed as it visits them, and the full p(n) sweep,
which places every partition and tests each square one for
self-conjugacy, where the package walks one shape of each conjugate pair
and counts it twice.  check_tower_heights checks the shape of a tower's
heights, which the package builds unchecked.  bit_positions lists the
1-digits of n one at a time, where the package sums their positions from
a few masked popcounts.  a2_recursion is the residue-2 count by the
paper's recursion on the leading binary digit, where the package sums
one term per set bit of n.
They hold no assert:
pytest rewrites none outside test modules, and python -O strips them.
"""

from math import comb
from typing import Iterator

from dimlab.beta_sets import shift_mask
from dimlab.binary_arith import _tables, factorial_sign_parity, position_sum
from dimlab.core_towers import CoreTower
from dimlab.partitions import Partition, conjugate, conjugate_mask, normalize_mask


def bit_positions(n: int) -> frozenset[int]:
    """Set of positions of the 1-digits in the binary expansion of n."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    positions = []
    while n:
        low = n & -n
        positions.append(low.bit_length() - 1)
        n ^= low
    return frozenset(positions)


def a2_recursion(n: int) -> int:
    """Partitions of n of dimension 2 mod 4, by the recursion on n's top bit.

    a2(2^r + m) = 2^r * a2(m) + C(half, 2) * a(m) when m < half = 2^(r - 1),
    and 2^r * a2(m) + (C(half, 3) + half) * a(m) / half otherwise, with the
    odd count a(m) = 2^(sum of m's bit positions); unrolled top bit first.
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    total, scale = 0, 1
    while n > 1:
        r = n.bit_length() - 1
        m = n - (1 << r)
        half = 1 << (r - 1)
        odd = 1 << position_sum(m)
        if m < half:
            term = comb(half, 2) * odd
        else:
            term, rem = divmod((comb(half, 3) + half) * odd, half)
            if rem:
                raise ArithmeticError(f"inexact division at n={n}")
        total += scale * term
        n, scale = m, scale << r
    return total


def parity_gap(x: int) -> int:
    """Beads of abacus x at even positions minus those at odd ones."""
    digits = format(x, "b")[::-1]
    return digits[::2].count("1") - digits[1::2].count("1")


def binom_mod4_counts(n: int) -> tuple[int, int]:
    """How many entries of row n of Pascal's triangle are 1 and 3 mod 4.

    Only the k whose binary digits are a subset of n's give odd C(n, k)
    (Lucas), and the residue of each is the product of three factorial signs.
    """
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    pn = factorial_sign_parity(n)
    ones = threes = 0
    k = n
    while True:
        if pn ^ factorial_sign_parity(k) ^ factorial_sign_parity(n - k):
            threes += 1
        else:
            ones += 1
        if not k:
            return ones, threes
        k = (k - 1) & n


def diagonal_hooks(p: Partition) -> list[int]:
    """Hook lengths of the diagonal cells (i, i), top-left first."""
    cols = conjugate(p).parts
    return [row + cols[i] - 2 * i - 1 for i, row in enumerate(p.parts) if row > i]


def column_conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers diagram: the height of column j becomes part j."""
    parts = p.parts
    heights, rows = [], len(parts)
    for col in range(1, parts[0] + 1 if parts else 1):
        while parts[rows - 1] < col:
            rows -= 1
        heights.append(rows)
    return Partition(heights)


def column_hook_lengths(p: Partition) -> list[int]:
    """All hook lengths, row-major, from the parts and the column heights: arm + leg + 1."""
    heights = column_conjugate(p).parts
    return [row - j + heights[j - 1] - i + 1
            for i, row in enumerate(p.parts, 1) for j in range(1, row + 1)]


def first_column_abacus(p: Partition) -> int:
    """Bit h for each hook h of the first column: the first of each row of column_hook_lengths."""
    hooks, x, start = column_hook_lengths(p), 0, 0
    for row in p.parts:
        x |= 1 << hooks[start]
        start += row
    return x


def parts_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition of n in reverse-lexicographic order, (n) first."""
    buf: list[int] = []

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(buf)
            return
        for first in range(min(remaining, cap), 0, -1):
            buf.append(first)
            yield from rec(remaining - first, first)
            buf.pop()

    return rec(n, n)


def _between(x: int, h: int, t: int) -> int:
    """Beads of abacus x strictly between h - t and h."""
    lo = max(h - t + 1, 0)
    return ((x & ((1 << h) - 1)) >> lo).bit_count()


def _flip_parity(x: int, h: int, t: int) -> int:
    """eta mod 2 for the parent abacus x whose added t-hook has first-column hook h >= t.

    The window count, less the bead at h - t/2, plus the beads at h + t/2
    and h - 3t/2 (absent when that is negative).
    """
    half = t >> 1
    eta = _between(x, h, t) ^ x >> (h - half) ^ x >> (h + half)
    if h >= 3 * half:
        eta ^= x >> (h - 3 * half)
    return eta & 1


def hook_params(core: int, t: int) -> list[int]:
    """The param of each of the t parents of a core, in `parents._hook_additions` order.

    That is the order of `_hook_additions(core, n, parity)`, t the top bit
    of n: kind I first, the bead x it moves for each bead of the core,
    largest first; then kind II, the shift r = t - j for each empty
    position j < t, by increasing r.
    """
    return ([x for x in range(t - 1, -1, -1) if core >> x & 1]
            + [r for r in range(1, t + 1) if not core >> (t - r) & 1])


def added_hooks(core: int, t: int) -> list[int]:
    """The first-column hook h of the t-hook each parent of a core adds, in
    `parents._hook_additions(core, n, parity)` order, t the top bit of n.

    The first core.bit_count() parents are kind I, whose bead x moves to
    h = x + t, and each kind II parent sets bead h = t.
    """
    params, beads = hook_params(core, t), core.bit_count()
    return [x + t for x in params[:beads]] + [t] * (len(params) - beads)


def _sign_step(top: int, top_h: int, eta: int) -> int:
    """Parity relating a core's sign to its parent's.

    For a parent of size n > 3 with top = top_two_bits(n) whose added hook
    has first-column hook h, top_h = top_two_bits(h) and eta = _flip_parity
    of the parent at h.
    """
    return (top + top_h + eta) & 1


def parity_split(x: int) -> tuple[int, int]:
    """The even and the odd beads of x, halved, after padding x to even size.

    The halves are left unnormalized: their popcounts are the parity
    census that core_height needs.

    >>> parity_split(0b11100)  # {4, 3, 2} pads to {5, 4, 3, 0}
    (5, 6)
    """
    if x.bit_count() & 1:
        x = shift_mask(x, 1)
    digits = format(x, "b")
    digits = digits.zfill(len(digits) + len(digits) % 2)
    return int(digits[1::2], 2), int(digits[::2], 2)


def core_height(evens: int, odds: int) -> int:
    """Rows of the 2-core of a beta-set with this many even and odd beads."""
    d = odds - evens
    return d if d >= 0 else -d - 1


def interleave(q0: int, q1: int, height: int) -> int:
    """Inverse of parity_split and core_height: the canonical abacus they came from.

    q0 and q1 are shifted to the fewest beads whose census has an even
    total and maps to `height`, then go back to the even and odd positions.
    """
    d = height if height % 2 == 0 else -(height + 1)
    evens = max(q0.bit_count(), q1.bit_count() - d, -d)
    b0 = shift_mask(q0, evens - q0.bit_count())
    b1 = shift_mask(q1, evens + d - q1.bit_count())
    # binary digits read in base 4 move bit i to bit 2i
    return normalize_mask(int(format(b0, "b"), 4) | int(format(b1, "b"), 4) << 1)


def _split(x: int) -> tuple[int, int, int]:
    """2-quotient masks and 2-core height of the canonical abacus x."""
    x0, x1 = parity_split(x)
    height = core_height(x0.bit_count(), x1.bit_count())
    return normalize_mask(x0), normalize_mask(x1), height


def split_rows(x: int) -> Iterator[list[int]]:
    """Staircase heights of each tower row over the abacus x, top row first.

    Each level splits every node's abacus into its 2-quotient masks.
    """
    level = [x]
    while any(level):
        heights, below = [], []
        for y in level:
            q0, q1, height = _split(y) if y else (0, 0, 0)
            heights.append(height)
            below += (q0, q1)
        yield heights
        level = below


def tower_class(x: int) -> str:
    """Residue class of the dimension, from every row weight of the tower over the abacus x.

    "odd" when every row weighs at most 1; "two_mod_4" when exactly one
    row j weighs 2 or 3, row j + 1 is empty or absent and every other row
    weighs at most 1; "other" otherwise.  Every row is weighed, where the
    package stops reading rows once its answer is fixed.
    """
    w = [sum(h * (h + 1) // 2 for h in heights) for heights in split_rows(x)]
    heavy = [k for k, weight in enumerate(w) if weight > 1]
    if not heavy:
        return "odd"
    if len(heavy) == 1:
        j = heavy[0]
        if w[j] <= 3 and (j + 1 == len(w) or w[j + 1] == 0):
            return "two_mod_4"
    return "other"


def tower_of_heights(heights: tuple[tuple[int, ...], ...]) -> CoreTower:
    """The tower with these dense heights: its nodes are the ancestors-or-self of the
    nonzero heights, by heap id 2^k + j, and its size is the sum over rows of 2^k * w_k."""
    flat = {2 ** k + j: h for k, row in enumerate(heights) for j, h in enumerate(row)}
    live = set()
    for i, h in flat.items():
        # 0 is the root's parent
        while h and i and i not in live:
            live.add(i)
            i //= 2
    size = sum(h * (h + 1) // 2 * 2 ** (i.bit_length() - 1) for i, h in flat.items())
    return CoreTower(tuple((i, flat[i]) for i in sorted(live)), size)


def check_tower_heights(heights: tuple[tuple[int, ...], ...]) -> None:
    """Raise ValueError unless heights have a tower's shape.

    At least one row; row k has 2^k entries, each an int >= 0; the last row
    is not all 0 unless it is the lone root row.
    """
    if not heights:
        raise ValueError("a tower needs at least one row")
    for k, row in enumerate(heights):
        if len(row) != 1 << k:
            raise ValueError(f"row {k} has {len(row)} entries, expected {1 << k}")
        for h in row:
            if type(h) is not int or h < 0:
                raise ValueError(f"row {k} entry {h!r} is not a 2-core")
    if len(heights) > 1 and not any(heights[-1]):
        raise ValueError("trailing all-empty row; trim before constructing")


def full_classified(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """(size, abacus, v2, sign parity) of every partition of a size in [lo, hi].

    The determinant form over the first-column hooks h,
    dim = n! * prod(h_i - h_j, i < j) / prod(h_i!), carried down a search
    that places rows bottom first, parts weakly rising: the row at height r
    with part p has hook p + r whatever goes above it, so a placed hook adds
    its factorial and its differences to the hooks below it once, for every
    partition above it.  Each node is a partition, its terms carried without
    the n! term, which is added per size.  A part of at most half the room
    left below hi makes a node; a larger one closes the shape.
    """
    v2s, signs, fact = _tables(1 << hi.bit_length())
    vfact = [k - k.bit_count() for k in range(hi + 1)]
    # a difference's valuation above bit 8, its sign parity below, summed per
    # hook in 16-bit fields of one int
    pair = [v << 8 | sign for v, sign in zip(v2s, signs)]
    row = [sum(pair[d] << 16 * (h + d) for d in range(1, hi + 1 - h)) for h in range(hi + 1)]
    stack = [(0, 1, 0, 0, 0, 0, 0)]
    while stack:
        diffs, low, k, r, x, val, par = stack.pop()
        if k >= lo:
            yield k, x, val + vfact[k], par ^ fact[k]
        room = hi - k
        half = room >> 1
        for p in range(low, half + 1):
            h = p + r
            s = diffs >> 16 * h & 0xFFFF
            stack.append((diffs + row[h], p, k + p, r + 1, x | 1 << h,
                          val - vfact[h] + (s >> 8), par ^ fact[h] ^ (s & 1)))
        for p in range(max(lo - k, half + 1, low), room + 1):
            h = p + r
            s = diffs >> 16 * h & 0xFFFF
            size = k + p
            yield (size, x | 1 << h, val - vfact[h] + (s >> 8) + vfact[size],
                   par ^ fact[h] ^ (s & 1) ^ fact[size])


def full_tallies(lo: int, hi: int) -> dict[int, tuple[int, int, int, int, int]]:
    """Per size in [lo, hi]: residues 1, 2, 3, then the self-conjugate shapes
    of dimension 2 mod 4 whose odd part is 1 and 3 mod 4.

    A shape is square (as many rows as its first part) when its abacus is
    twice as wide as it has beads; only a square shape can be self-conjugate.
    """
    tally = {k: [0, 0, 0, 0, 0] for k in range(lo, hi + 1)}
    for k, x, v, par in full_classified(lo, hi):
        if v == 0:
            tally[k][2 * par] += 1
        elif v == 1:
            tally[k][1] += 1
            if x.bit_length() == 2 * x.bit_count() and x == conjugate_mask(x):
                tally[k][3 + par] += 1
    return {k: tuple(counts) for k, counts in tally.items()}
