import random

import pytest
from hypothesis import given, strategies as st

from dimlab.beta_sets import (
    BetaSet,
    first_column_hooks,
    shift,
    shift_mask,
    t_core,
    t_core_mask,
    to_partition,
)
from dimlab.partitions import (Partition, conjugate, conjugate_mask, dim_mod4, enumerate_partitions,
                               normalize_mask, parts_of)
from paper_facts import (column_conjugate, core_height, interleave, parity_gap, parity_split,
                         parts_partitions)


def abacus(elements):
    return sum(1 << e for e in elements)


def elements_of(x):
    """The beads of abacus x, largest first."""
    return [h for h in reversed(range(x.bit_length())) if x >> h & 1]


def test_beta_set_basics():
    x = BetaSet((5, 2, 8, 10, 7))
    assert x.mask == abacus((10, 8, 7, 5, 2))
    assert x.mask >> 7 & 1 and not x.mask >> 6 & 1
    assert x.mask.bit_count() == 5
    assert BetaSet(()).mask == 0


def test_beta_set_rejects_bad_input():
    with pytest.raises(ValueError):
        BetaSet((3, 3))
    with pytest.raises(ValueError, match="distinct, got 3 twice"):
        BetaSet((3, 1, 3))
    with pytest.raises(ValueError):
        BetaSet((-1, 2))


def test_beta_set_refuses_non_integral_elements():
    with pytest.raises(TypeError):
        BetaSet((3.9, 1))


def test_first_column_hooks_examples():
    assert first_column_hooks(Partition((2, 2, 2))).mask == abacus((4, 3, 2))
    assert first_column_hooks(Partition((6, 5, 5, 4, 2))).mask == abacus((10, 8, 7, 5, 2))
    assert first_column_hooks(Partition(())).mask == 0


def test_to_partition_examples():
    assert to_partition(BetaSet((9, 6, 4, 2, 1))).parts == (5, 3, 2, 1, 1)
    assert to_partition(BetaSet((10, 8, 7, 5, 2))).parts == (6, 5, 5, 4, 2)
    assert to_partition(BetaSet(())) == Partition(())
    assert to_partition(BetaSet((3, 1, 0))).parts == (1,)


def test_round_trip_canonical():
    for n in range(0, 21):
        for p in enumerate_partitions(n):
            assert to_partition(first_column_hooks(p)) == p


@given(
    st.lists(st.integers(min_value=1, max_value=25), max_size=7),
    st.integers(min_value=0, max_value=12),
)
def test_shift_preserves_partition(parts, r):
    p = Partition(tuple(sorted(parts, reverse=True)))
    shifted = shift(first_column_hooks(p), r)
    assert to_partition(shifted) == p
    assert shifted.mask.bit_count() == len(p) + r


elements_st = st.lists(st.integers(min_value=0, max_value=40), max_size=8, unique=True)


@given(elements_st)
def test_beta_set_mask_is_its_abacus(elements):
    assert BetaSet(elements).mask == sum(1 << x for x in elements)


@given(elements_st, st.one_of(st.integers(min_value=41), st.integers(min_value=0, max_value=40)))
def test_membership_is_false_off_the_set(elements, probe):
    x = BetaSet(elements)
    assert elements_of(x.mask) == sorted(elements, reverse=True)
    assert bool(x.mask >> probe & 1) == (probe in elements)


@given(elements_st, st.integers(min_value=0, max_value=9))
def test_shift_is_the_plain_set_shift(elements, r):
    assert shift(BetaSet(elements), r).mask == abacus({e + r for e in elements} | set(range(r)))


@given(elements_st)
def test_normalize_is_the_plain_set_rule(elements):
    # while 0 is present, drop it and move every other element down one
    x = set(elements)
    while 0 in x:
        x = {e - 1 for e in x if e}
    assert normalize_mask(abacus(elements)) == abacus(x)


def test_normalize_and_equivalent():
    # two abaci describe the same partition when they normalize alike
    x = abacus((6, 3, 1, 0))
    assert normalize_mask(x) == abacus((4, 1))
    assert normalize_mask(shift_mask(x, 4)) == normalize_mask(x)
    assert normalize_mask(abacus((6, 3, 1))) != normalize_mask(x)


def test_t_core_examples():
    assert t_core(Partition((6, 5, 5, 4, 2)), 5).parts == (3, 2, 1, 1)
    assert t_core(Partition((5, 5, 5, 4, 2)), 5).parts == (3, 1, 1, 1)
    assert t_core(Partition((3, 3, 3)), 2).parts == (1,)
    assert t_core(Partition((2, 2)), 2) == Partition(())
    assert t_core(Partition(()), 3) == Partition(())


def test_a_hook_past_the_abacus_width_removes_nothing_at_any_size():
    # no hook of (3,) is longer than 3, and no int can be shifted by 10**4400:
    # the answer must come before any shift
    for t in (10**6, 10**4400):
        assert t_core(Partition((3,)), t).parts == (3,)
    assert t_core(Partition(()), 10**4400).parts == ()


def test_t_core_at_the_abacus_width():
    # the abacus of (3,) is 0b1000 and that of (2, 1) is 0b1010, both 4 bits
    # wide, and each has a 3-hook: the longest
    assert t_core(Partition((3,)), 4).parts == (3,)
    assert t_core(Partition((3,)), 3).parts == ()
    assert t_core(Partition((2, 1)), 3).parts == ()
    assert t_core(Partition((2, 1)), 4).parts == (2, 1)


def test_t_core_is_idempotent_and_size_consistent():
    for n in range(0, 16):
        for p in enumerate_partitions(n):
            for t in (2, 3, 4, 5):
                core = t_core(p, t)
                assert t_core(core, t) == core
                assert (n - core.size) % t == 0


def test_t_core_order_independent():
    # remove hooks in random legal orders; the end state never changes
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randrange(1, 22)
        t = rng.randrange(2, 7)
        parts = []
        remaining = n
        while remaining:
            part = rng.randrange(1, remaining + 1)
            parts.append(part)
            remaining -= part
        p = Partition(tuple(sorted(parts, reverse=True)))
        want = t_core(p, t)
        x = set(elements_of(first_column_hooks(p).mask))
        while True:
            moves = [h for h in x if h >= t and h - t not in x]
            if not moves:
                break
            h = rng.choice(moves)
            x.remove(h)
            x.add(h - t)
        assert to_partition(BetaSet(x)) == want


def test_parity_gap_examples():
    assert parity_gap(0b11000100101011) == -1  # {13, 12, 8, 5, 3, 1, 0}
    assert parity_gap(0) == 0
    assert parity_gap(0b101) == 2  # {2, 0}


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=8, unique=True))
def test_parity_gap_shift_rule(elements):
    x = sum(1 << e for e in elements)
    assert parity_gap(shift_mask(x, 1)) == 1 - parity_gap(x)


def test_parity_gap_of_odd_partitions():
    # for odd-dimension partitions the gap of the hook set only depends
    # on the parity of n and of the set size
    for n in range(1, 19):
        for p in enumerate_partitions(n):
            if dim_mod4(p).v2 != 0:
                continue
            hooks = p.abacus
            want = (1 - (-1) ** n) if hooks.bit_count() % 2 == 0 else (-1) ** n
            assert parity_gap(hooks) == want, p


partitions_st = st.lists(st.integers(min_value=1, max_value=30), max_size=12).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))
masks_st = st.integers(min_value=0, max_value=(1 << 48) - 1)


@given(partitions_st)
def test_mask_round_trip(p):
    x = p.abacus
    assert x == first_column_hooks(p).mask
    assert parts_of(x) == p.parts
    assert normalize_mask(x) == x


def test_conjugate_mask_is_the_conjugate():
    # both abacus routes against the column heights of a checked partition
    for n in range(21):
        for parts in parts_partitions(n):
            p = Partition(parts)
            want = column_conjugate(p)
            assert conjugate_mask(p.abacus) == want.abacus, p
            got = conjugate(p)
            assert (got.size, got.parts) == (n, want.parts), p


@given(masks_st, st.integers(min_value=0, max_value=9))
def test_mask_shift_matches_beta_set_shift(x, r):
    elements = elements_of(x)
    assert shift_mask(x, r) == shift(BetaSet(elements), r).mask
    assert parts_of(shift_mask(x, r)) == parts_of(x) == to_partition(BetaSet(elements)).parts
    assert normalize_mask(shift_mask(x, r)) == normalize_mask(x)


@given(masks_st)
def test_shift_by_two_shifts_each_quotient_by_one(x):
    x0, x1 = parity_split(x)
    y0, y1 = parity_split(shift_mask(x, 2))
    assert (y0, y1) == (shift_mask(x0, 1), shift_mask(x1, 1))
    height = core_height(x0.bit_count(), x1.bit_count())
    assert core_height(y0.bit_count(), y1.bit_count()) == height


@given(partitions_st)
def test_core_height_from_popcounts_is_the_two_core(p):
    core = t_core(p, 2)
    x0, x1 = parity_split(p.abacus)
    assert core.parts == tuple(range(core_height(x0.bit_count(), x1.bit_count()), 0, -1))


@given(masks_st)
def test_interleave_inverts_parity_split(x):
    x0, x1 = parity_split(x)
    height = core_height(x0.bit_count(), x1.bit_count())
    assert interleave(normalize_mask(x0), normalize_mask(x1), height) == normalize_mask(x)


def test_core_height_rule():
    # d = odds - evens; the staircase has d rows, or -d - 1 when d < 0
    assert [core_height(3, o) for o in range(7)] == [2, 1, 0, 0, 1, 2, 3]


@given(partitions_st, st.integers(min_value=1, max_value=7))
def test_t_core_mask_matches_one_hook_at_a_time(p, t):
    x = set(elements_of(first_column_hooks(p).mask))
    while True:
        moves = [h for h in x if h >= t and h - t not in x]
        if not moves:
            break
        x.remove(max(moves))
        x.add(max(moves) - t)
    assert parts_of(t_core_mask(p.abacus, t)) == to_partition(BetaSet(x)).parts
