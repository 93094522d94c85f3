"""Partitions obtained by adding a single hook of length 2^R to a core.

On the abacus of a core mu with |mu| < 2^R there are exactly 2^R ways to
add a 2^R-hook.  Kind I moves one bead x up to x + 2^R, one record per
first-column hook of mu.  Kind II shifts the abacus by r, drops bead 0
and sets bead 2^R; it is admissible for each r = 1..2^R whose shift
leaves position 2^R empty.  The sign of a parent's dimension follows the
core's sign up to a parity computable from the hook set alone, which is
the engine behind all the signed counting downstream.  `_top_level_steps`
gives that parity for all 2^R parents of a core at once, one bit each.
`_hook_additions` lists the parents of size n in one pass, as parallel
lists of parent abaci and their own sign parities, for `all_parents` and
the odd stream alike; it alone flips every bit when n starts "10".
`_top_level_sum` counts the bits where n starts "11".  The tests keep a
per-parent route on the parent's abacus as the reference.
"""

from __future__ import annotations

from typing import NamedTuple

from .binary_arith import top_two_bits
from .errors import SizeLimitError
from .partitions import ENUMERATION_LIMIT, Partition


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
    # kind I moves each bead j, largest first, to j + t; kind II shifts by r to fill gap t - r
    kinds = ([("I", j, j + t) for j in range(t - 1, -1, -1) if x >> j & 1]
             + [("II", r, t) for r in range(1, t + 1) if not x >> t - r & 1])
    return [ParentRecord(Partition._of_abacus(parent, size), kind, param, affected, step)
            for (kind, param, affected), parent, step in zip(kinds, abaci, steps)]


def _top_level_steps(core: int, t: int) -> tuple[int, int]:
    # the sign steps of the t parents _hook_additions(core, n, 0) lists, for a parent
    # size n starting "11", top_two_bits(n) = 2 (it flips them all at "10"): bit x of
    # the first mask for the kind I parent moving bead x, bit j of the second
    # for the kind II parent leaving j empty.  The step is top_two_bits(n) +
    # top_two_bits(h) + eta mod 2, h the added hook's first-column hook and eta
    # sign_flip_parity, which the tests count per parent in a window of the
    # parent's abacus (tests/paper_facts.py).  Here that count reads:
    #   kind I: 1 + [x >= half] + (beads above x) + core[x + half] + core[x - half];
    #   kind II: j + (beads below j) + (1 if j < half else core[j - half]) + core[j + half].
    # The bead counts are suffix and prefix XOR scans of log2(t) shift-XORs (Warren,
    # Hacker's Delight, 2nd ed., 5-2): O(log t) ops on t-bit ints.  full // 3 << 1 is the odd j.
    half = t >> 1
    full = (1 << t) - 1
    high = full ^ ((1 << half) - 1)
    above, below = core >> 1, core << 1
    k = 1
    while k < t:
        above ^= above >> k
        below ^= below << k
        k <<= 1
    # core[x + half], core[x - half] and [x >= half] at each position x < t
    mirror = core << half ^ core >> half ^ high
    return core & ~(above ^ mirror), (full ^ core) & (full // 3 << 1 ^ below ^ mirror ^ full)


def _hook_additions(core: int, n: int, parity: int) -> tuple[list[int], list[int]]:
    """(parent abaci, sign parities): the t parents of size n of a core, t the top bit of n.

    `core` is canonical with every bead below t.  Kind I comes first, one
    per bead x of the core, largest bead first; then kind II, one per empty
    position j < t, largest first, which is by increasing shift r = t - j.
    A parent's parity is `parity` XOR its bit of the core's `_top_level_steps`
    masks, flipped when n starts "10".  One pass builds both lists.
    """
    t = 1 << (n.bit_length() - 1)
    top = 1 << t
    one, two = _top_level_steps(core, t)
    if parity ^ top_two_bits(n) & 1:
        one ^= core
        two ^= top - 1 ^ core
    bead_parents, bead_steps, shift_parents, shift_steps = [], [], [], []
    for j in range(t - 1, -1, -1):
        if core >> j & 1:
            bead_parents.append(core ^ (1 << j | top << j))
            bead_steps.append(one >> j & 1)
        else:
            # shift by r = t - j, drop bead 0 and set bead t: admissible when j is empty
            r = t - j
            shift_parents.append(core << r | (1 << r) - 2 | top)
            shift_steps.append(two >> j & 1)
    return bead_parents + shift_parents, bead_steps + shift_steps


def _top_level_sum(core: int, t: int) -> int:
    # the sum of (-1)^step over the t parents of a core, for a parent size
    # starting "11": t less twice the odd steps
    one, two = _top_level_steps(core, t)
    return t - 2 * (one.bit_count() + two.bit_count())


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
