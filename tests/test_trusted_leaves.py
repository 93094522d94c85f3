"""Partitions built inside the package skip the checks of Partition(...).

The package builds each of its own from an abacus (Partition._of_abacus).
Each one must pass the checks anyway: a leaf equals the partition that the
public, checking constructor builds from its parts, size included.  A
leaf of the odd stream also carries the dimension class its walk derived,
which must equal the class computed afresh on that checked twin.  A
partition built from an abacus decodes its parts only when they are first
read, and then reads as its checked twin; its hooks and dimensions never
read them.  A tower is the runners of its abacus that are not packed,
with their int staircase heights, which nothing checks when the package
builds them; the dense heights read off them must pass the shape checks of
paper_facts.check_tower_heights and give back the same tower.
"""

import pytest
from hypothesis import given, strategies as st

from dimlab import partitions
from dimlab.beta_sets import BetaSet, shift_mask, t_core, to_partition
from dimlab.core_towers import combine, staircase, tower, tower_to_partition, two_core, two_quotient
from dimlab.enumeration import count_odd, enumerate_odd_partitions
from dimlab.parents import all_parents, predict_parent_sign, sign_flip_parity
from dimlab.partitions import (Partition, conjugate, dim_exact, dim_mod4, enumerate_partitions,
                               hook_lengths, parts_of)
from paper_facts import check_tower_heights, column_hook_lengths, parts_partitions, tower_of_heights

partitions_st = st.lists(st.integers(min_value=1, max_value=12), max_size=10).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))


def assert_checked(leaf):
    checked = Partition(leaf.parts)
    assert type(leaf) is Partition and type(leaf.parts) is tuple
    assert (leaf.parts, leaf.size) == (checked.parts, checked.size)
    # a kept abacus is canonical, as a checked partition encodes it
    assert leaf.abacus == checked.abacus


@given(partitions_st, st.integers(min_value=1, max_value=9))
def test_leaves_of_the_abacus_moves_pass_the_checks(p, t):
    x = shift_mask(p.abacus, t)
    shifted = BetaSet(h for h in range(x.bit_length()) if x >> h & 1)
    for leaf in (t_core(p, t), *two_quotient(p), tower_to_partition(tower(p)),
                 combine(*two_quotient(p), two_core(p)), conjugate(p), to_partition(shifted)):
        assert_checked(leaf)


@given(partitions_st, st.integers(min_value=1, max_value=9))
def test_every_partition_is_built_with_its_size(p, t):
    x = shift_mask(p.abacus, t)
    shifted = BetaSet(h for h in range(x.bit_length()) if x >> h & 1)
    built = [to_partition(shifted), t_core(p, t), conjugate(p), staircase(t),
             *(rec.parent for rec in all_parents(Partition((2, 1)), 3)),
             *enumerate_partitions(t), *enumerate_odd_partitions(t + 4),
             tower_to_partition(tower(p)), *two_quotient(p), combine(*two_quotient(p), two_core(p))]
    # the slot itself, read before anything could decode the parts to sum them
    sizes = [object.__getattribute__(q, "size") for q in built]
    assert sizes == [Partition(q.parts).size for q in built]


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


def test_streamed_classes_match_their_checked_twins():
    # every n below 64 whose stream is at most 2^10 leaves: 41-45 and 48-51
    # among them
    sizes = [n for n in range(64) if count_odd(n) <= 1 << 10]
    assert max(sizes) == 51
    leaves = 0
    for n in sizes:
        for leaf in enumerate_odd_partitions(n):
            twin = Partition(leaf.parts)
            carried = dim_mod4(leaf)
            assert leaf._dim is carried and carried.v2 == 0, leaf
            assert carried == dim_mod4(twin), leaf
            leaves += 1
    assert leaves == sum(map(count_odd, sizes))


def test_a_carried_class_is_not_part_of_the_partition():
    for leaf in enumerate_odd_partitions(13):
        twin = Partition(leaf.parts)
        assert twin._dim is None
        assert leaf == twin and twin == leaf and hash(leaf) == hash(twin)
        assert repr(leaf) == repr(twin) and len({leaf, twin}) == 1


def test_trusted_towers_pass_the_checks():
    for n in range(21):
        for p in enumerate_partitions(n):
            t = tower(p)
            assert t == tower_of_heights(t.heights), p
            assert type(t.heights) is tuple and all(type(row) is tuple for row in t.heights), p
            check_tower_heights(t.heights)
            check_tower_heights(tuple(row[::-1] for row in t.heights))


@given(partitions_st, st.integers(min_value=0, max_value=64))
def test_parts_of_drops_the_beads_packed_at_the_bottom(p, r):
    assert parts_of(shift_mask(p.abacus, r)) == p.parts


def test_parts_of_the_empty_abacus():
    assert parts_of(0) == ()


@pytest.fixture
def decoded(monkeypatch):
    """The abaci that partitions decode while the test runs, in order."""
    seen = []

    def spy(x):
        seen.append(x)
        return parts_of(x)

    monkeypatch.setattr(partitions, "parts_of", spy)
    return seen


def test_a_leaf_read_only_through_dim_mod4_is_never_decoded(decoded):
    leaves = 0
    for n in range(31):
        for leaf in enumerate_odd_partitions(n):
            assert dim_mod4(leaf).v2 == 0
            leaves += 1
    assert leaves == sum(map(count_odd, range(31)))
    assert decoded == []


def test_parents_and_their_signs_decode_no_leaf(decoded):
    # all_parents reads a streamed core's kept abacus, and sign_flip_parity its records
    for core in enumerate_odd_partitions(7):
        recs = all_parents(core, 4)
        assert len(recs) == 16 and all(sign_flip_parity(rec) in (0, 1) for rec in recs)
    assert decoded == []


def test_hooks_and_dimensions_decode_no_parts(decoded):
    for p in enumerate_partitions(12):
        q = conjugate(p)
        assert sorted(hook_lengths(q)) == sorted(hook_lengths(p))
        assert (dim_exact(q), dim_mod4(q)) == (dim_exact(p), dim_mod4(p))
    assert decoded == []


def test_the_parents_dimensions_decode_no_parts(decoded):
    core = Partition((3, 1))
    recs = all_parents(core, 3)
    assert [predict_parent_sign(rec, dim_mod4(core).sign) for rec in recs] == [
        dim_mod4(rec.parent).sign for rec in recs]
    assert len(recs) == 8 and decoded == []


def test_hooks_read_off_the_abacus_match_the_parts_route(decoded):
    # order included: the reference lists arm + leg + 1 row-major
    for n in range(31):
        for leaf, parts in zip(enumerate_partitions(n), parts_partitions(n), strict=True):
            checked = Partition(parts)
            want = column_hook_lengths(checked)
            assert hook_lengths(leaf) == hook_lengths(checked) == want, parts
    assert decoded == []


def test_parts_are_decoded_once(decoded):
    leaf = list(enumerate_odd_partitions(13))[5]
    parts = leaf.parts
    assert leaf.parts is parts and leaf.size == 13 and len(decoded) == 1
    # its size is read off the mask when it is built, so only its parts are decoded, once
    p = to_partition(BetaSet((9, 6, 4, 2, 1)))
    assert (p.size, p.size) == (12, 12) and decoded == [leaf.abacus]
    assert (p.parts, p.parts) == ((5, 3, 2, 1, 1), (5, 3, 2, 1, 1))
    assert decoded == [leaf.abacus, 0b1001010110]


@pytest.mark.parametrize("read", [str, len, hash, repr], ids=["str", "len", "hash", "repr"])
def test_an_undecoded_leaf_reads_as_its_checked_twin(read):
    for n in (0, 5, 13, 24):
        twins = [Partition(leaf.parts) for leaf in enumerate_odd_partitions(n)]
        assert [read(leaf) for leaf in enumerate_odd_partitions(n)] == list(map(read, twins))


def test_an_undecoded_leaf_equals_its_checked_twin():
    twins = [Partition(leaf.parts) for leaf in enumerate_odd_partitions(13)]
    assert list(enumerate_odd_partitions(13)) == twins
    assert twins == list(enumerate_odd_partitions(13))
    assert list(enumerate_odd_partitions(13)) != twins[::-1]


def test_an_unknown_attribute_is_an_attribute_error():
    for p in (next(enumerate_odd_partitions(5)), to_partition(BetaSet((3, 1))), Partition((2, 1))):
        with pytest.raises(AttributeError, match="'Partition' object has no attribute 'colour'"):
            p.colour
        assert not hasattr(p, "colour")
    with pytest.raises(AttributeError):  # built from parts, it has no abacus until read
        object.__getattribute__(Partition((2, 1)), "abacus")
