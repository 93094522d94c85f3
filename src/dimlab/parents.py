"""Partitions obtained by adding a single hook of length 2^R to a core.

On the abacus of a core mu with |mu| < 2^R there are exactly 2^R ways to
add a 2^R-hook.  Kind I moves one bead x up to x + 2^R, one record per
first-column hook of mu.  Kind II shifts the abacus by r, drops bead 0
and sets bead 2^R; it is admissible for each r = 1..2^R whose shift
leaves position 2^R empty.  The sign of a parent's dimension follows the
core's sign up to a parity computable from the hook set alone, which is
the engine behind all the signed counting downstream.  `_top_level_steps`
gives that parity for all 2^R parents of a core at once, one bit each.
`_top_level` makes them each parent's own sign parity, the one place
that flips every bit when n starts "10".  `_hook_additions` lists the
parents as ints with their parities, `_leaves` builds them as the odd
stream's leaves with their classes, and where n starts "11"
`_top_level_total` sums the signs of many cores' parents, the cores
packed into big ints.  The tests keep a per-parent route on the parent's
abacus, and the per-core sum, as the references.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from typing import NamedTuple

from .binary_arith import top_two_bits
from .errors import SizeLimitError
from .partitions import ENUMERATION_LIMIT, DimClass, Partition

# the class of an odd dimension whose odd part is 1 and 3 mod 4, by sign parity
_ODD_CLASSES = (DimClass(0, 1), DimClass(0, -1))


class ParentRecord(NamedTuple):
    parent: Partition
    kind: str  # "I" bumps an existing element, "II" shifts then inserts
    param: int  # kind I: the bumped element; kind II: the shift amount
    affected: int  # first-column hook length of the added hook
    step: int  # 1 when the parent's dimension sign is the opposite of its core's (n > 3)


def all_parents(core: Partition, r_power: int) -> list[ParentRecord]:
    """Both kinds together: exactly 2^r_power records, refused with
    SizeLimitError when the parents would pass ENUMERATION_LIMIT."""
    if r_power < 1:
        raise ValueError(f"r_power must be at least 1, got {r_power}")
    # bit lengths first, so that a huge r_power is refused before 2^r_power is built
    if core.size.bit_length() > r_power:
        raise ValueError(f"core size {core.size} must be below 2^{r_power} = {1 << r_power}")
    if (r_power > ENUMERATION_LIMIT.bit_length()
            or core.size + (1 << r_power) > ENUMERATION_LIMIT):
        raise SizeLimitError(f"parents of size {core.size} + 2^{r_power} exceed "
                             f"the enumeration bound {ENUMERATION_LIMIT}")
    t = 1 << r_power
    x, size = core.abacus, core.size + t
    abaci, steps = _hook_additions(x, size, 0)
    # kind I moves bead j to j + t, kind II shifts by t - j to fill gap j; the stable
    # sort puts kind I first, each kind in position order (largest j first)
    return sorted((ParentRecord(Partition._of_abacus(parent, size),
                                *(("I", j, j + t) if x >> j & 1 else ("II", t - j, t)), step)
                   for j, parent, step in zip(range(t - 1, -1, -1), abaci, steps)),
                  key=lambda rec: rec.kind)


def _top_level_masks(t: int, count: int = 1) -> tuple[int, int, int, int]:
    # the field width in bytes and the masks _top_level_steps reads, for `count`
    # cores packed one per field of W = 8 * width >= 2t + 2 bits: in every field,
    # the t positions below t, those at t/2 or above, and the odd ones
    width = (2 * t + 9) // 8
    ones = int.from_bytes((bytes(width - 1) + b"\1") * count, "big")
    full = ((1 << t) - 1) * ones
    return width, full, full ^ ((1 << (t >> 1)) - 1) * ones, full // 3 << 1


# one core's masks by t, which the listings read once per core
_core_masks = cache(_top_level_masks)


def _top_level_steps(cores: int, t: int, masks: tuple[int, int, int, int]) -> int:
    # the sign steps of the t parents _hook_additions(core, n, 0) lists, for a parent
    # size n starting "11", top_two_bits(n) = 2 (_top_level flips them all at "10"): bit x,
    # a bead, for the kind I parent moving it, bit j, a gap, for the kind II
    # parent filling it.  The step is top_two_bits(n) +
    # top_two_bits(h) + eta mod 2, h the added hook's first-column hook and eta
    # sign_flip_parity, which the tests count per parent in a window of the
    # parent's abacus (tests/paper_facts.py).  Here that count reads:
    #   kind I: 1 + [x >= half] + (beads above x) + core[x + half] + core[x - half];
    #   kind II: j + (beads below j) + (1 if j < half else core[j - half]) + core[j + half].
    # The bead counts are suffix and prefix XOR scans of log2(t) shift-XORs (Warren,
    # Hacker's Delight, 2nd ed., 5-2): O(log t) ops on t-bit ints.  `cores` may
    # hold many cores, one per field of W >= 2t bits, with `_top_level_masks`
    # for as many: a scan shifts by t at most, so no field's bits below t reach
    # another's, and each field gets its own core's masks
    _, full, high, odd = masks
    half = t >> 1
    above, below = cores >> 1, cores << 1
    k = 1
    while k < t:
        above ^= above >> k
        below ^= below << k
        k <<= 1
    # core[x + half], core[x - half] and [x >= half] at each position x < t
    mirror = cores << half ^ cores >> half ^ high
    return cores & ~(above ^ mirror) | (full ^ cores) & (odd ^ below ^ mirror ^ full)


def _top_level_total(cores: list[int], t: int, masks: tuple[int, int, int, int]) -> int:
    # the sum of (-1)^step over the t parents of every core listed, for a parent
    # size starting "11": t less twice the odd steps, per core.  The cores go in
    # one int, one per field, so the scans run once; `masks` is
    # _top_level_masks(t, len(cores)), which callers build once per length
    width = masks[0]
    packed = int.from_bytes(b"".join(map(int.to_bytes, cores, repeat(width), repeat("big"))), "big")
    return t * len(cores) - 2 * _top_level_steps(packed, t, masks).bit_count()


def _top_level(core: int, n: int, parity: int) -> tuple[int, int, int, int, int]:
    # (t, steps, bead, raised, base), what both listings of the core's t parents
    # of size n read: t the top bit of n; bit j of steps the sign parity of the
    # parent that moves bead j (kind I) or fills gap j (kind II), `parity`
    # XOR its bit of the `_top_level_steps` mask, flipped when n starts
    # "10"; and the parents' abaci, core ^ bead << j for kind I and
    # (raised << t - j) + base for kind II.  That is the shift by r = t - j, bead 0
    # dropped and bead t set: core << r, (1 << r) - 2 and 1 << t share no bit, so
    # (core + 1 << r) + 2^t - 2 is their OR
    t = 1 << (n.bit_length() - 1)
    steps = _top_level_steps(core, t, _core_masks(t))
    if parity ^ top_two_bits(n) & 1:
        steps ^= (1 << t) - 1
    return t, steps, (1 << t) | 1, core + 1, (1 << t) - 2


def _hook_additions(core: int, n: int, parity: int) -> tuple[list[int], list[int]]:
    """(parent abaci, sign parities): the t parents of size n of a core, t the top bit of n.

    `core` is canonical with every bead below t.  The parents come in
    position order, one per position j < t, largest first: kind I moves the
    bead at j, kind II shifts by r = t - j to fill the gap at j.  Abaci and
    parities come from `_top_level`; one loop builds both lists, and `_leaves`
    walks the same loop: the two change together.
    """
    t, steps, bead, raised, base = _top_level(core, n, parity)
    parents, parities = [], []
    for j in range(t - 1, -1, -1):
        parents.append(core ^ bead << j if core >> j & 1 else (raised << t - j) + base)
        parities.append(steps >> j & 1)
    return parents, parities


def _leaves(core: int, n: int, parity: int) -> list[Partition]:
    # the parents of _hook_additions(core, n, parity), in its order, as unchecked
    # Partitions of size n, each built as its parity bit is read, with the class
    # _ODD_CLASSES[parity] that dim_mod4 returns and equality, hashing and repr
    # ignore.  The loop is _hook_additions' own, and the two change together
    t, steps, bead, raised, base = _top_level(core, n, parity)
    new, cls, classes = object.__new__, Partition, _ODD_CLASSES
    leaves = []
    for j in range(t - 1, -1, -1):
        leaf = new(cls)
        leaf.abacus = core ^ bead << j if core >> j & 1 else (raised << t - j) + base
        leaf._dim, leaf.size = classes[steps >> j & 1], n
        leaves.append(leaf)
    return leaves


def sign_flip_parity(rec: ParentRecord) -> int:
    """Parity of sign flips between the core's dimension and the parent's.

    Read off the record's step and the top digits of the parent's size and
    of the added hook.  The window count on the parent's abacus and the
    defining product of odd-part signs are the reference routes in the tests.
    """
    return rec.step ^ (top_two_bits(rec.parent.size) ^ top_two_bits(rec.affected)) & 1


def predict_parent_sign(rec: ParentRecord, core_sign: int) -> int:
    """Odd-part sign of the parent's dimension, from the core's sign alone."""
    n = rec.parent.size
    if n <= 3:
        raise ValueError(f"prediction needs a parent of size above 3, got {n}")
    return -core_sign if rec.step else core_sign
