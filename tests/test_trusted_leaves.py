"""Partitions built inside the package skip the checks of Partition(...).

Each one must pass them anyway: a leaf equals the partition that the
public, checking constructor builds from its parts, size included.
"""

from hypothesis import given, strategies as st

from dimlab.beta_sets import BetaSet, mask_of, parts_of, shift_mask, t_core, to_partition
from dimlab.core_towers import combine, staircase, tower, tower_to_partition, two_core, two_quotient
from dimlab.enumeration import enumerate_odd_partitions
from dimlab.parents import all_parents
from dimlab.partitions import Partition, conjugate, enumerate_partitions

partitions_st = st.lists(st.integers(min_value=1, max_value=12), max_size=10).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))


def assert_checked(leaf):
    checked = Partition(leaf.parts)
    assert type(leaf) is Partition and type(leaf.parts) is tuple
    assert (leaf.parts, leaf.size) == (checked.parts, checked.size)


@given(partitions_st, st.integers(min_value=1, max_value=9))
def test_leaves_of_the_abacus_moves_pass_the_checks(p, t):
    x = shift_mask(mask_of(p), t)
    shifted = BetaSet(h for h in range(x.bit_length()) if x >> h & 1)
    for leaf in (t_core(p, t), *two_quotient(p), tower_to_partition(tower(p)),
                 combine(*two_quotient(p), two_core(p)), conjugate(p), to_partition(shifted)):
        assert_checked(leaf)


@given(st.integers(min_value=0, max_value=15), st.data())
def test_parents_pass_the_checks(size, data):
    core = data.draw(st.sampled_from(list(enumerate_partitions(size))))
    r_power = data.draw(st.integers(min_value=max(1, size.bit_length()), max_value=6))
    for rec in all_parents(core, r_power):
        assert_checked(rec.parent)


@given(st.integers(min_value=0, max_value=40))
def test_streamed_leaves_pass_the_checks(n):
    for leaf in enumerate_odd_partitions(n):
        assert_checked(leaf)
    for leaf in enumerate_partitions(min(n, 20)):
        assert_checked(leaf)
    assert_checked(staircase(n))


@given(partitions_st, st.integers(min_value=0, max_value=64))
def test_parts_of_drops_the_beads_packed_at_the_bottom(p, r):
    assert parts_of(shift_mask(mask_of(p), r)) == p.parts


def test_parts_of_the_empty_abacus():
    assert parts_of(0) == ()
