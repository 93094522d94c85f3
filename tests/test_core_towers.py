import pytest
from hypothesis import given, strategies as st

from dimlab import core_towers, partitions
from dimlab.beta_sets import t_core
from dimlab.cli import main
from dimlab.core_towers import (
    TOWER_LIMIT,
    CoreTower,
    _nodes,
    classify_by_tower,
    combine,
    is_two_core,
    row_weights,
    staircase,
    tower,
    tower_to_partition,
    two_core,
    two_quotient,
)
from dimlab.errors import SizeLimitError
from dimlab.partitions import Partition, conjugate, dim_mod4, enumerate_partitions, parts_of
from paper_facts import check_tower_heights, split_rows, tower_class, tower_of_heights

EMPTY = Partition(())


def P(*parts):
    return Partition(parts)


def rendered(capsys, p):
    """The rows `dimlab tower p` prints as text, one string a row; the weights line dropped."""
    assert main(["tower", str(p)]) == 0
    *rows, weights = capsys.readouterr().out.splitlines()
    assert weights.startswith("w = ")
    return rows


def split_heights(x):
    # the parity-split rows as a tower's dense heights: no row over a packed root is one empty root
    return tuple(map(tuple, split_rows(x))) or ((0,),)


def test_staircase():
    assert staircase(0) == EMPTY
    assert staircase(1) == P(1)
    assert staircase(3) == P(3, 2, 1)
    with pytest.raises(ValueError):
        staircase(-1)


def test_is_two_core_means_staircase():
    stairs = {staircase(h) for h in range(6)}
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            assert is_two_core(p) == (p in stairs)


def test_two_quotient_examples():
    assert two_quotient(P(3, 3, 3)) == (P(1, 1), P(2))
    assert two_quotient(P(2, 2)) == (P(1), P(1))
    assert two_quotient(P(2)) == (EMPTY, P(1))
    assert two_quotient(P(1, 1)) == (P(1), EMPTY)
    assert two_quotient(P(1)) == (EMPTY, EMPTY)


def test_two_core_examples():
    assert two_core(P(3, 3, 3)) == P(1)
    assert two_core(P(2, 2)) == EMPTY
    assert two_core(P(6, 5, 4, 2, 1, 1)) == P(2, 1)
    for h in range(5):
        assert two_core(staircase(h)) == staircase(h)


def test_quotient_and_core_account_for_all_boxes():
    for n in range(0, 15):
        for p in enumerate_partitions(n):
            q0, q1 = two_quotient(p)
            assert n == two_core(p).size + 2 * (q0.size + q1.size)


def test_combine_round_trips():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            q0, q1 = two_quotient(p)
            assert combine(q0, q1, two_core(p)) == p
    # the other direction: any two components over any staircase split back
    small = [q for m in range(0, 5) for q in enumerate_partitions(m)]
    for h in range(5):
        assert combine(EMPTY, EMPTY, staircase(h)) == staircase(h)
        for q0 in small:
            for q1 in small:
                p = combine(q0, q1, staircase(h))
                assert (two_quotient(p), two_core(p)) == ((q0, q1), staircase(h))


@given(st.lists(st.integers(min_value=1, max_value=30), max_size=12))
def test_combine_inverts_quotient_and_core(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    assert combine(*two_quotient(p), two_core(p)) == p
    assert two_core(p) == t_core(p, 2)


def test_combine_rejects_non_staircase_core():
    with pytest.raises(ValueError, match="staircase"):
        combine(P(1), P(1), P(2))


def test_tower_of_a_medium_partition(capsys):
    t = tower(P(6, 5, 4, 2, 1, 1))
    assert rendered(capsys, P(6, 5, 4, 2, 1, 1)) == [
        "2,1",
        "- | -",
        "1 | - | 1 | -",
        "- | - | - | - | - | - | 1 | -",
    ]
    assert row_weights(t) == (3, 0, 2, 1)
    assert t.depth == 4
    assert sum(w << k for k, w in enumerate(row_weights(t))) == 19


def test_tower_of_self_conjugate_partition_is_palindromic(capsys):
    t = tower(P(3, 3, 3))
    assert rendered(capsys, P(3, 3, 3)) == ["1", "- | -", "1 | - | - | 1"]
    assert tuple(row[::-1] for row in t.heights) == t.heights


def test_tower_of_empty_partition(capsys):
    # the census yields no node under the packed root; the dense view is one empty root
    t = tower(EMPTY)
    assert t.nodes == ()
    assert t.heights == ((0,),)
    assert t.depth == 1
    assert row_weights(t) == (0,)
    assert rendered(capsys, EMPTY) == ["-"]


def test_tower_round_trip():
    for n in range(0, 15):
        for p in enumerate_partitions(n):
            t = tower(p)
            # the size identity: row k weighs 2^k
            assert sum(w << k for k, w in enumerate(row_weights(t))) == n
            assert tower_to_partition(t) == p


def test_round_trip_builds_the_abacus_before_any_parts_are_read(monkeypatch):
    decoded = []
    monkeypatch.setattr(partitions, "parts_of", lambda x: decoded.append(x) or parts_of(x))
    for n in range(0, 25):
        for p in enumerate_partitions(n):
            back = tower_to_partition(tower(p))
            assert (back.abacus, back.size) == (p.abacus, n), p
    assert decoded == []


def test_census_rows_match_the_parity_split_rows():
    # the reference splits each node's abacus by parity, level by level
    for n in range(0, 25):
        for p in enumerate_partitions(n):
            assert tower(p).heights == split_heights(p.abacus), p


@given(st.lists(st.integers(min_value=1, max_value=200), max_size=40))
def test_census_rows_and_their_inverse_on_larger_partitions(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    assert tower(p).heights == split_heights(p.abacus)
    assert tower_to_partition(tower(p)) == p


def test_nodes_are_the_ancestors_of_the_nonzero_heights():
    # zero heights above a nonzero one stay, for the inverse descends through them
    for n in range(0, 23):
        for p in enumerate_partitions(n):
            assert tower(p) == tower_of_heights(split_heights(p.abacus)), p
    assert tower(P(3, 1)).nodes == ((1, 0), (2, 0), (5, 1))


@given(st.lists(st.integers(min_value=1, max_value=200), max_size=40))
def test_nodes_are_the_ancestors_of_the_nonzero_heights_on_larger_partitions(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    assert tower(p) == tower_of_heights(split_heights(p.abacus))


@pytest.mark.parametrize("parts", [
    (TOWER_LIMIT,),
    (1,) * TOWER_LIMIT,
    # a staircase of 139 rows under a long first row
    (270, *range(139, 0, -1)),
], ids=["one-row", "one-column", "mixed"])
def test_round_trip_at_the_tower_limit(parts):
    # (1,) * n has n parts, the most beads any partition of n needs at the root
    p = Partition(parts)
    assert p.size == TOWER_LIMIT
    t = tower(p)
    assert sum(w << k for k, w in enumerate(row_weights(t))) == TOWER_LIMIT
    assert tower_to_partition(t) == p
    with pytest.raises(SizeLimitError, match="TOWER_LIMIT = 10000"):
        tower(Partition((parts[0] + 1, *parts[1:])))


def test_packed_abaci_have_no_rows():
    # 2^c - 1 holds its c beads in its first c positions: every runner below it is packed
    for c in range(65):
        assert list(_nodes((1 << c) - 1)) == [], c


@pytest.mark.parametrize("parts", [(TOWER_LIMIT,), (1,) * TOWER_LIMIT],
                         ids=["one-row", "one-column"])
def test_a_row_or_a_column_stores_one_node_a_row(parts):
    # the rows under the root hold 2^14 - 2 runners, and only the one over the top bead
    # is not packed
    t = tower(Partition(parts))
    assert [i.bit_length() for i, _ in t.nodes] == list(range(1, t.depth + 1))
    assert len(t.nodes) == t.depth == 14


@pytest.mark.parametrize("shape", ["row", "column"])
def test_census_rows_and_their_inverse_on_rows_and_columns(shape):
    # (1,) * n puts a bead on every runner of its rows, yet only one runner per row is not
    # packed; its conjugate (n,) has a single bead.  Sizes 2^j - 1, 2^j and 2^j + 1 put the
    # abacus width n + 1 on either side of a comb class, and the inverse's width 2n + 2 in
    # the classes up to that of 2 * TOWER_LIMIT + 2
    for n in [*range(513), *(2 ** j + e for j in range(10, 14) for e in (-1, 0, 1))]:
        p = Partition((n,) if shape == "row" and n else (1,) * n)
        assert tower(p).heights == split_heights(p.abacus), n
        assert tower_to_partition(tower(p)) == p, n


def test_nodes_are_the_same_with_the_comb_tables_cold_warm_and_after_a_wider_class(monkeypatch):
    monkeypatch.setattr(core_towers, "_combs", {})
    small = [p for n in range(0, 16) for p in enumerate_partitions(n)]
    cold = []
    for p in small:
        core_towers._combs.clear()
        cold.append(tuple(_nodes(p.abacus)))
    warm = [tuple(_nodes(p.abacus)) for p in small]
    # the one-row tower at the limit fills class 14 and its inverse, of width
    # 2 * TOWER_LIMIT + 2, class 15; a wider abacus builds class 16 for its call, unkept
    assert tower_to_partition(tower(Partition((TOWER_LIMIT,)))) == Partition((TOWER_LIMIT,))
    assert [i.bit_length() for i, _ in _nodes(1 << 4 * TOWER_LIMIT)] == list(range(1, 17))
    assert max(core_towers._combs) == 15
    wider = [tuple(_nodes(p.abacus)) for p in small]
    assert cold == warm == wider == [tower_of_heights(split_heights(p.abacus)).nodes
                                     for p in small]


def test_flip_is_conjugation():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            t = tower(p)
            assert tuple(row[::-1] for row in t.heights) == tower(conjugate(p)).heights


def residue_class(p):
    v2 = dim_mod4(p).v2
    return "odd" if v2 == 0 else ("two_mod_4" if v2 == 1 else "other")


def test_classification_agrees_with_residue():
    for n in range(0, 17):
        for p in enumerate_partitions(n):
            assert classify_by_tower(p) == residue_class(p), p


def test_classification_agrees_with_the_all_rows_rule():
    # the reference weighs every parity-split row, where classify_by_tower stops early
    for n in range(0, 25):
        for p in enumerate_partitions(n):
            assert classify_by_tower(p) == tower_class(p.abacus), p


@st.composite
def partitions_up_to(draw, most):
    parts, room = [], draw(st.integers(min_value=0, max_value=most))
    while room:
        part = draw(st.integers(min_value=1, max_value=room))
        parts.append(part)
        room -= part
    return Partition(tuple(sorted(parts, reverse=True)))


@given(partitions_up_to(80))
def test_classification_agrees_with_residue_up_to_80(p):
    assert classify_by_tower(p) == residue_class(p)


def node_valuation(p):
    # Macdonald: v2 of the dimension is the sum of the tower's weights less n's binary digit sum
    return sum(h * (h + 1) // 2 for _, h in tower(p).nodes) - p.size.bit_count()


def test_node_weights_give_the_valuation():
    for n in range(0, 21):
        for p in enumerate_partitions(n):
            assert node_valuation(p) == dim_mod4(p).v2, p


@given(partitions_up_to(80))
def test_node_weights_give_the_valuation_up_to_80(p):
    assert node_valuation(p) == dim_mod4(p).v2


def test_tower_its_inverse_and_the_class_read_no_dense_rows(monkeypatch, capsys):
    reads = []
    dense = CoreTower.heights
    monkeypatch.setattr(CoreTower, "heights", property(lambda t: reads.append(t) or dense.fget(t)))
    for n in range(0, 16):
        for p in enumerate_partitions(n):
            assert tower_to_partition(tower(p)) == p
            classify_by_tower(p)
    assert reads == []
    # the spy sees a reader: the CLI's rendering reads the dense view, once
    assert rendered(capsys, P(3, 1)) == ["-", "- | -", "- | 1 | - | -"]
    assert len(reads) == 1


def test_tower_validation():
    # each check's whole message
    with pytest.raises(ValueError, match="^a tower needs at least one row$"):
        check_tower_heights(())
    with pytest.raises(ValueError, match="^row 1 has 1 entries, expected 2$"):
        check_tower_heights(((0,), (1,)))
    with pytest.raises(ValueError, match="^row 0 entry -1 is not a 2-core$"):
        check_tower_heights(((-1,),))
    with pytest.raises(ValueError, match=r"^row 1 entry 1\.0 is not a 2-core$"):
        check_tower_heights(((0,), (1.0, 0)))
    with pytest.raises(ValueError, match="^trailing all-empty row; trim before constructing$"):
        check_tower_heights(((1,), (0, 0)))
    # a lone all-empty row is fine: it is the tower of the empty partition
    check_tower_heights(((0,),))
    assert row_weights(CoreTower((), 0)) == (0,)


def test_tower_identity():
    a = tower(P(3, 3, 3))
    b = tower(P(3, 3, 3))
    assert a == b and hash(a) == hash(b)
    assert a != tower(P(2, 2))
    assert len({a, b, tower(P(2, 2))}) == 2
    with pytest.raises(AttributeError):
        a.rows = ()
    with pytest.raises(AttributeError):
        a.heights = ()
    assert repr(a).startswith("CoreTower(nodes=((")
