import pytest
from hypothesis import example, given, strategies as st

from dimlab.core_towers import TOWER_LIMIT
from dimlab.errors import SizeLimitError
from dimlab.partitions import (
    DimClass,
    Partition,
    conjugate,
    dim_exact,
    dim_mod4,
    enumerate_partitions,
    hook_lengths,
)
from paper_facts import first_column_abacus, parts_partitions

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]

# every partition of 6 with its exact dimension
DIMS_OF_SIX = {
    (6,): 1, (5, 1): 5, (4, 2): 9, (4, 1, 1): 10, (3, 3): 5, (3, 2, 1): 16,
    (3, 1, 1, 1): 10, (2, 2, 2): 5, (2, 2, 1, 1): 9, (2, 1, 1, 1, 1): 5,
    (1, 1, 1, 1, 1, 1): 1,
}


def test_partition_basics():
    p = Partition((4, 3, 3, 1))
    assert p.size == 11
    assert len(p) == 4
    assert p.parts == (4, 3, 3, 1)
    assert str(p) == "4,3,3,1"
    assert str(Partition(())) == "-"
    # truthiness comes from __len__
    assert bool(Partition(())) is False and bool(p) is True


def test_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_non_integral_parts_are_refused():
    # int() would truncate 2.7 to 2 and read the string "31" as parts 3, 1
    with pytest.raises(TypeError):
        Partition((2.7, 1))
    with pytest.raises(TypeError):
        Partition("31")


def test_from_text_round_trip():
    assert Partition.from_text("4,3,3,1").parts == (4, 3, 3, 1)
    assert Partition.from_text("-") == Partition(())
    assert Partition.from_text("") == Partition(())
    with pytest.raises(ValueError):
        Partition.from_text("3,a")
    with pytest.raises(ValueError):
        Partition.from_text("1,3")


def test_from_text_takes_ascii_digits_only():
    assert Partition.from_text(" 3 , 1 ") == Partition((3, 1))
    for text in ("1_0,2", "+2", "3,-1", "\u0666", "3,\u0661", "\u00b2", "3,,1", "3.0"):
        with pytest.raises(ValueError, match="bad partition text"):
            Partition.from_text(text)


@given(st.text(st.sampled_from("0123456789,- +_\t\u0666\u00b2"), max_size=12) | st.text())
def test_from_text_refuses_or_round_trips(text):
    try:
        p = Partition.from_text(text)
    except ValueError:
        return
    assert Partition.from_text(str(p)) == p


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=8))
def test_from_text_inverts_str(parts):
    p = Partition(sorted(parts, reverse=True))
    assert Partition.from_text(str(p)) == p


def test_conjugate_examples():
    assert conjugate(Partition((4, 2, 1))).parts == (3, 2, 1, 1)
    assert conjugate(Partition((4, 3, 3, 1))).parts == (4, 3, 3, 1)
    assert conjugate(Partition(())) == Partition(())


def test_conjugate_is_involution():
    for n in range(0, 15):
        for p in enumerate_partitions(n):
            assert conjugate(conjugate(p)) == p


def test_hook_lengths_table():
    p = Partition((3, 2))
    assert hook_lengths(p) == [4, 3, 1, 2, 1]
    assert hook_lengths(Partition((4, 3, 3, 1)))[1] == 5


def test_hook_count_equals_size():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            hooks = hook_lengths(p)
            assert len(hooks) == n
            columns = conjugate(p).parts
            # arm + leg + 1 of each cell, row-major
            assert hooks == [
                (row - j) + (columns[j - 1] - i) + 1
                for i, row in enumerate(p.parts, 1)
                for j in range(1, row + 1)
            ]


def test_dim_exact_values():
    assert dim_exact(Partition((3, 2))) == 5
    assert dim_exact(Partition(())) == 1
    assert dim_exact(Partition((1,))) == 1
    for parts, want in DIMS_OF_SIX.items():
        assert dim_exact(Partition(parts)) == want


def test_dim_exact_respects_limit():
    with pytest.raises(SizeLimitError):
        dim_exact(Partition((61,)))
    assert dim_exact(Partition((61,)), limit=61) == 1


def test_dim_exact_refuses_a_size_past_4300_digits_by_its_bit_length():
    with pytest.raises(SizeLimitError, match="^\\|p\\| = a 14617-bit number exceeds"):
        dim_exact(Partition((10**4400,)))
    with pytest.raises(SizeLimitError, match="^\\|p\\| = 61 exceeds the dim_exact bound 60$"):
        dim_exact(Partition((61,)))


def test_dim_exact_equals_conjugate_dim():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            assert dim_exact(p) == dim_exact(conjugate(p))


def test_dim_class_residues():
    assert dim_mod4(Partition((2, 2))) == DimClass(v2=1, sign=1)
    # one shape of each residue mod 4: dimensions 1, 3, 6 and 16
    assert dim_mod4(Partition((6,))) == DimClass(0, 1)
    assert dim_mod4(Partition((3, 1))) == DimClass(0, -1)
    assert dim_mod4(Partition((3, 1, 1))) == DimClass(1, -1)
    assert dim_mod4(Partition((3, 2, 1))) == DimClass(4, 1)


def test_dim_mod4_matches_exact():
    # the whole class, valuation and the sign of the odd part, read off the
    # exact dimension with no helper of the package; the residue mod 4 would
    # not see the sign once the valuation is 2 or more
    for n in range(0, 19):
        for p in enumerate_partitions(n):
            f = dim_exact(p)
            v2 = (f & -f).bit_length() - 1
            assert dim_mod4(p) == DimClass(v2, 1 if (f >> v2) % 4 == 1 else -1), p


@st.composite
def blocks_up_to(draw, most):
    # a few part sizes, each repeated: long columns and runs of equal parts
    parts, room = [], draw(st.integers(min_value=0, max_value=most))
    while room:
        part = draw(st.integers(min_value=1, max_value=room))
        count = draw(st.integers(min_value=1, max_value=room // part))
        parts += [part] * count
        room -= part * count
    return Partition(tuple(sorted(parts, reverse=True)))


@given(blocks_up_to(150))
@example(Partition((150,)))
@example(Partition((1,) * 150))
@example(Partition((10,) * 15))
@example(Partition((60, 30) + (1,) * 60))
def test_dim_mod4_matches_exact_up_to_150(p):
    # past the sweep's 40 and the enumeration bound: the exact dimension,
    # read mod 4 through its odd part
    cls = dim_mod4(p)
    f = dim_exact(p, limit=p.size)
    assert f % (1 << cls.v2) == 0 and (f >> cls.v2) % 2 == 1
    assert (1 if (f >> cls.v2) % 4 == 1 else -1) == cls.sign


def test_enumerate_partitions_counts():
    for n, want in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in enumerate_partitions(n)) == want


def test_enumerate_partitions_order_and_bounds():
    four = [p.parts for p in enumerate_partitions(4)]
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(SizeLimitError):
        next(enumerate_partitions(81))


def test_enumerate_partitions_checks_n_when_called():
    # no next(): the refusal comes before any partition is asked for
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_partitions(-1)
    with pytest.raises(SizeLimitError, match="enumeration bound 80"):
        enumerate_partitions(81)


def test_enumerate_partitions_refuses_n_past_4300_digits_by_its_bit_length():
    with pytest.raises(SizeLimitError, match="^n = a 14617-bit number exceeds the enumeration "):
        enumerate_partitions(10**4400)
    with pytest.raises(SizeLimitError, match="^n = 81 exceeds the enumeration bound 80$"):
        enumerate_partitions(81)


def test_enumerate_partitions_is_the_parts_recursion():
    for n in range(21):
        want = list(parts_partitions(n))
        leaves = list(enumerate_partitions(n))
        # the kept abacus and size are read before the parts are first decoded
        assert [leaf.abacus for leaf in leaves] == [Partition(parts).abacus for parts in want]
        assert {leaf.size for leaf in leaves} == {n}
        assert [leaf.parts for leaf in leaves] == want


def test_a_checked_partition_builds_its_abacus_once_when_read():
    p = Partition((40, 3))
    with pytest.raises(AttributeError):  # __init__ leaves the slot unset
        object.__getattribute__(p, "abacus")
    x = p.abacus
    assert x == 1 << 41 | 1 << 3 and p.abacus is x


def test_the_abacus_is_the_first_column_hooks():
    for n in range(15):
        for parts in parts_partitions(n):
            p = Partition(parts)
            assert p.abacus == first_column_abacus(p), parts
    # the long shapes at the tower's bound: a column, a row, and a staircase of size 9870
    assert Partition((1,) * TOWER_LIMIT).abacus == (1 << TOWER_LIMIT + 1) - 2
    assert Partition((TOWER_LIMIT,)).abacus == 1 << TOWER_LIMIT
    assert Partition(tuple(range(140, 0, -1))).abacus == sum(1 << 2 * i + 1 for i in range(140))


@given(blocks_up_to(300))
@example(Partition((300,)))
@example(Partition((1,) * 300))
def test_a_drawn_abacus_is_the_first_column_hooks(p):
    assert p.abacus == first_column_abacus(p)


def test_ordering_and_hashing():
    a = Partition((3, 1))
    b = Partition((3, 1))
    assert a == b and hash(a) == hash(b)
    assert a != Partition((2, 2)) and a != (3, 1)
    assert len({a, b, Partition((2, 2))}) == 2
