"""Partitions obtained by adding a single hook of length 2^R to a core.

On the abacus of a core mu with |mu| < 2^R there are exactly 2^R ways to
add a 2^R-hook.  Kind I moves one bead x up to x + 2^R, one record per
first-column hook of mu.  Kind II shifts the abacus by r, drops bead 0
and sets bead 2^R; it is admissible for each r = 1..2^R whose shift
leaves position 2^R empty.  The sign of a parent's dimension follows the
core's sign up to a parity computable from the hook set alone, which is
the engine behind all the signed counting downstream.  `_flip_parity`
and `_sign_step` compute that parity for one parent on its abacus int;
`_top_level_steps` gives it for all 2^R parents of a core at once, one bit
each, which the odd stream reads and `_top_level_sum` counts.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .binary_arith import top_two_bits
from .beta_sets import mask_of, move_bead, shift_mask
from .errors import SizeLimitError
from .partitions import ENUMERATION_LIMIT, Partition


class ParentRecord(NamedTuple):
    parent: Partition
    r_power: int  # the added hook has length 2**r_power
    kind: str  # "I" bumps an existing element, "II" shifts then inserts
    param: int  # kind I: the bumped element; kind II: the shift amount
    affected: int  # first-column hook length of the added hook


def _hook_additions(core: int, t: int) -> Iterator[tuple[str, int, int, int]]:
    """(kind, param, affected, parent abacus) for each t-hook added to a core.

    `core` is canonical with every bead below t.  Kind I comes first,
    largest bead first, then kind II by increasing shift.
    """
    for x in reversed(range(core.bit_length())):
        if core >> x & 1:
            yield "I", x, x + t, move_bead(core, x, x + t)
    for r in range(1, t + 1):
        shifted = shift_mask(core, r)
        if not shifted >> t & 1:
            yield "II", r, t, move_bead(shifted, 0, t)


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
    return [ParentRecord(Partition._of_abacus(x, core.size + t), r_power, kind, param, affected)
            for kind, param, affected, x in _hook_additions(mask_of(core), t)]


def _between(x: int, h: int, t: int) -> int:
    # beads of abacus x strictly between h - t and h
    lo = max(h - t + 1, 0)
    return ((x & ((1 << h) - 1)) >> lo).bit_count()


def _flip_parity(x: int, h: int, t: int) -> int:
    # eta mod 2 for the parent abacus x whose added t-hook has first-column
    # hook h >= t: the window count, less the bead at h - t/2, plus the
    # beads at h + t/2 and h - 3t/2 (absent when that is negative)
    half = t >> 1
    eta = _between(x, h, t) ^ x >> (h - half) ^ x >> (h + half)
    if h >= 3 * half:
        eta ^= x >> (h - 3 * half)
    return eta & 1


def _top_level_steps(core: int, t: int) -> tuple[int, int]:
    # the _sign_step parities of the t parents _hook_additions(core, t) yields,
    # for a parent size n with top_two_bits(n) = 2 (all flip when it is 1): bit
    # x of the first mask for the kind I parent moving bead x, bit j of the
    # second for the kind II parent leaving j empty.  Read off _flip_parity:
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


def _top_level_sum(core: int, t: int, c: int) -> int:
    # the sum of (-1)^step over those parents, c = top_two_bits(n) & 1: t less twice the odd steps
    one, two = _top_level_steps(core, t)
    total = t - 2 * (one.bit_count() + two.bit_count())
    return -total if c else total


def _sign_step(top: int, top_h: int, eta: int) -> int:
    # parity relating the core's sign to its parent's, for a parent of size
    # n > 3 with top = top_two_bits(n) whose added hook has first-column hook h,
    # top_h = top_two_bits(h) and eta = _flip_parity of the parent at h
    return (top + top_h + eta) & 1


def sign_flip_parity(rec: ParentRecord) -> int:
    """Parity of sign flips between the core's dimension and the parent's.

    Counted by window and membership tests on the parent's abacus.  The
    defining product of odd-part signs is the reference route in
    tests/test_parents.py.
    """
    return _flip_parity(mask_of(rec.parent), rec.affected, 1 << rec.r_power)


def predict_parent_sign(rec: ParentRecord, core_sign: int) -> int:
    """Odd-part sign of the parent's dimension, from the core's sign alone."""
    n = rec.parent.size
    if n <= 3:
        raise ValueError(f"prediction needs a parent of size above 3, got {n}")
    step = _sign_step(top_two_bits(n), top_two_bits(rec.affected), sign_flip_parity(rec))
    return -core_sign if step else core_sign

