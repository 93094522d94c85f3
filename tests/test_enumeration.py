"""Counting tests; every frozen number below was produced by classifying
exact big-integer dimensions of all partitions of n, independently of the
formulas under test."""

import inspect
import json
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from dimlab import alternating, enumeration
from dimlab.enumeration import (
    EXACT,
    FALLBACK,
    CountReport,
    a2,
    a2_sparse,
    clear_caches,
    count_odd,
    delta,
    delta_sparse,
    enumerate_odd_partitions,
    formula_counts,
    m4,
    oracle_counts,
)
from dimlab.binary_arith import _tables, is_sparse, top_two_bits
from dimlab.errors import SizeLimitError
from dimlab.parents import _hook_additions, _top_level_sum
from dimlab.partitions import (_ODD_CLASSES, ENUMERATION_LIMIT, DimClass, Partition,
                               conjugate_mask, dim_exact, dim_mod4, enumerate_partitions,
                               normalize_mask)
from paper_facts import (_flip_parity, _sign_step, a2_recursion, added_hooks, bit_positions,
                         full_classified, full_tallies)

# columns: n, a, a1, a2, a3, delta, m4
FROZEN = [
    (1, 1, 1, 0, 0, 1, 1),
    (2, 2, 2, 0, 0, 2, 2),
    (3, 2, 2, 1, 0, 2, 3),
    (4, 4, 2, 1, 2, 0, 5),
    (5, 4, 4, 1, 0, 4, 5),
    (6, 8, 8, 2, 0, 8, 10),
    (7, 8, 4, 6, 4, 0, 14),
    (8, 8, 4, 6, 4, 0, 14),
    (9, 8, 6, 6, 2, 4, 14),
    (10, 16, 8, 12, 8, 0, 28),
    (11, 16, 12, 20, 4, 8, 36),
    (12, 32, 16, 16, 16, 0, 48),
    (13, 32, 16, 16, 16, 0, 48),
    (14, 64, 32, 32, 32, 0, 96),
]


@pytest.mark.parametrize("n,a,one,two,three,diff,not4", FROZEN)
def test_formula_counts_against_frozen_table(n, a, one, two, three, diff, not4):
    rep = formula_counts(n)
    assert (rep.a, rep.a1, rep.a2, rep.a3, rep.delta, rep.m4) == (
        a, one, two, three, diff, not4,
    )


def test_count_odd():
    assert count_odd(0) == 1
    assert count_odd(1) == 1
    assert count_odd(6) == 8
    assert count_odd(12) == 32
    assert count_odd(2**5) == 32
    # exponent is the sum of the bit positions
    assert count_odd(44) == 1 << sum(bit_positions(44))
    with pytest.raises(ValueError):
        count_odd(-1)


def test_count_odd_size_limit():
    assert count_odd((1 << 33) | (1 << 30)) == 1 << 63
    with pytest.raises(SizeLimitError):
        count_odd((1 << 34) | (1 << 30))


def test_delta_values_and_statuses():
    want = [1, 1, 2, 2, 0, 4, 8, 0, 0, 4, 0, 8, 0, 0, 0]
    assert [delta(n)[0] for n in range(0, 15)] == want
    for n in (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12):
        assert delta(n)[1] == EXACT
    for n in (7, 13, 14):
        assert delta(n)[1] == FALLBACK
    assert delta(11) == (8, EXACT)


def test_delta_fallback_is_honest():
    # 13 has binary form 1101: leading "11" plus an extra one, so the
    # recursion cannot reach it and the signed odd stream answers
    value, status = delta(13)
    assert status == FALLBACK
    assert value == oracle_counts(13).delta
    # 222 = 11011110 walks 2^23 leaves, one power past the ceiling
    with pytest.raises(SizeLimitError, match="walk's ceiling of 2\\^22$"):
        delta(222)


def test_delta_sparse():
    assert delta_sparse(0) == 1
    assert delta_sparse(2) == 2
    assert delta_sparse(4) == 0
    assert delta_sparse(5) == 4
    assert delta_sparse(21) == 16
    with pytest.raises(ValueError):
        delta_sparse(6)
    for n in range(1, 40):
        if is_sparse(n):
            assert delta_sparse(n) == delta(n)[0], n


# x & ~(x << 1) keeps the lowest bit of each run of ones: a sparse n > 0
SPARSE = st.integers(min_value=1, max_value=2**200 - 1).map(lambda x: x & ~(x << 1))


@given(SPARSE)
def test_delta_recursion_meets_the_sparse_closed_form(n):
    assert delta(n) == (delta_sparse(n), EXACT)


@st.composite
def sparse_below_the_count_cap(draw):
    # a sparse n whose bit positions sum below 64, built top bit first
    top = draw(st.integers(min_value=0, max_value=63))
    n, total, pos = 1 << top, top, top - 2
    while pos >= 0:
        if total + pos < 64 and draw(st.booleans()):
            n, total, pos = n | 1 << pos, total + pos, pos - 2
        else:
            pos -= 1
    return n


@given(sparse_below_the_count_cap())
def test_a2_recursion_meets_the_sparse_shortcut(n):
    assert is_sparse(n) and sum(bit_positions(n)) < 64
    assert a2(n) == a2_sparse(n)


def test_a1_a3():
    for n, want in ((2, (2, 0)), (5, (4, 0)), (6, (8, 0)), (13, (16, 16))):
        report = formula_counts(n)
        assert (report.a1, report.a3) == want


def test_a2_values():
    assert a2(0) == 0
    assert a2(1) == 0
    assert a2(4) == 1
    assert a2(5) == 1
    assert a2(6) == 2
    assert a2(24) == 160
    assert [a2(row[0]) for row in FROZEN] == [row[3] for row in FROZEN]


def test_a2_is_the_recursion():
    # every n below 2^14, then seeded long n: the recursion's odd count
    # 2^(sum of bit positions) has no cap, so it reaches any size
    assert all(a2(n) == a2_recursion(n) for n in range(1 << 14))
    rng = random.Random(38)
    for bits, count in ((300, 20), (1000, 3)):
        for _ in range(count):
            n = rng.getrandbits(bits) | 1 << bits - 1
            assert a2(n) == a2_recursion(n), n


def test_a2_is_exact_past_the_count_cap():
    # a2 once took each level's odd count from count_odd, so it refused the
    # second n by its suffix 2^34 + 2^30, a number the caller never passed.
    # The odd count of each n is past the 64-bit line, and the refusals of the
    # functions that report it name the caller's n
    for n, name in ((87381, "of 87381"), (2**100 + 2**34 + 2**30, "a 101-bit number")):
        assert a2(n) == a2_recursion(n)
        for function in (count_odd, m4, formula_counts, alternating.formula_alt_counts):
            with pytest.raises(SizeLimitError, match=f"{name} needs 2\\^") as refusal:
                function(n)
            assert "past the 64-bit line" in str(refusal.value)


def test_a2_sparse_shortcut():
    for n in (4, 8, 10, 16, 18, 20, 32, 34, 36, 40):
        assert is_sparse(n)
        assert a2_sparse(n) == a2(n)
    assert a2_sparse(5) == a2_sparse(4) == 1
    with pytest.raises(ValueError):
        a2_sparse(6)


def test_m4_counts_dimensions_not_divisible_by_four():
    assert m4(1) == 1
    assert m4(4) == 5
    assert m4(6) == 10
    for n in range(1, 13):
        want = sum(1 for p in enumerate_partitions(n) if dim_exact(p) % 4)
        assert m4(n) == want


def test_explicit_closed_forms_where_applicable():
    # with leading binary digits "10" and at least two digits set, the
    # even case balances a1 = a3 and the odd case recurses with factor 4
    for n in range(2, 31):
        bits = sorted(bit_positions(n), reverse=True)
        if len(bits) < 2 or bits[0] <= bits[1] + 1:
            continue
        report = formula_counts(n)
        one, three = report.a1, report.a3
        if n % 2 == 0:
            assert one == three == count_odd(n) // 2, n
        else:
            m = formula_counts(n - (1 << bits[0]))
            tail = 1 << sum(bits[1:])
            assert one == 4 * m.a1 + ((1 << (bits[0] - 1)) - 2) * tail, n
            assert three == 4 * m.a3 + ((1 << (bits[0] - 1)) - 2) * tail, n


def test_odd_stream_small_cases():
    assert list(enumerate_odd_partitions(0)) == [Partition(())]
    assert list(enumerate_odd_partitions(1)) == [Partition((1,))]
    assert set(enumerate_odd_partitions(3)) == {
        Partition((3,)),
        Partition((1, 1, 1)),
    }
    six = list(enumerate_odd_partitions(6))
    assert len(six) == 8
    assert Partition((3, 2, 1)) not in six


def test_odd_stream_matches_exact_dimensions():
    for n in range(0, 17):
        got = list(enumerate_odd_partitions(n))
        assert len(got) == len(set(got)) == count_odd(n)
        want = {p for p in enumerate_partitions(n) if dim_exact(p) % 2}
        assert set(got) == want


def test_odd_stream_is_the_walk():
    # the stream builds each core's leaves in one list: the same abaci, in the
    # same order, each with the class of the walk's carried sign parity, at
    # every n to the benchmark's 57
    for n in range(58):
        assert [(p.abacus, dim_mod4(p)) for p in enumerate_odd_partitions(n)] == [
            (x, _ODD_CLASSES[parity]) for x, parity in enumeration._odd_abaci(n)], n


def test_odd_stream_refuses_a_negative_n_when_called():
    # before the stream is read: the call itself raises
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_odd_partitions(-1)


def per_leaf_walk(n):
    """(abacus, sign parity) of each odd partition of n, each parent's step
    computed on its own abacus by _flip_parity and _sign_step."""
    if n == 0:
        return [(0, 0)]
    t = 1 << (n.bit_length() - 1)
    leaves = []
    for core, parity in per_leaf_walk(n - t):
        parents, _ = _hook_additions(core, n, 0)
        leaves += [(parent, parity ^ _sign_step(top_two_bits(n), top_two_bits(h),
                                                _flip_parity(parent, h, t)) if n > 3 else 0)
                   for h, parent in zip(added_hooks(core, t), parents)]
    return leaves


def test_odd_abaci_is_the_per_leaf_walk():
    # the masks of _top_level_steps give the walk the same leaves, in the same
    # order and with the same signs, as one step per leaf: 53,166 leaves
    for n in range(60):
        assert list(enumeration._odd_abaci(n)) == per_leaf_walk(n), n


@pytest.mark.parametrize("t", [1 << s for s in range(1, 7)])
def test_parents_of_the_base_pair_off_under_conjugation(t):
    # the level where the halved fallback halves: the parents of () and (1)
    for base, size in ((0, 0), (0b10, 1)):
        parents, _ = _hook_additions(base, size + t, 0)
        assert len(parents) == len(set(parents)) == t
        assert all(normalize_mask(x) == x for x in parents)
        pairs = {frozenset((x, conjugate_mask(x))) for x in parents}
        assert len(pairs) == t // 2 and all(len(pair) == 2 for pair in pairs), base
        assert set().union(*pairs) == set(parents), base


def test_conjugate_cores_share_parity_and_top_level_sum():
    # what lets the fallback double the sum over half the cores: every odd core
    # of a size below t, for each t <= 32
    for t in (2, 4, 8, 16, 32):
        for k in range(t):
            parities = dict(enumeration._odd_abaci(k))
            for x, parity in parities.items():
                y = conjugate_mask(x)
                assert parities[y] == parity, (k, x)
                assert _top_level_sum(x, t) == _top_level_sum(y, t), (t, x)


def test_half_walk_keeps_one_of_each_conjugate_pair():
    for n in range(2, 60):
        half = list(enumeration._odd_abaci(n, half=True))
        expanded = {y: parity for x, parity in half for y in (x, conjugate_mask(x))}
        assert len(expanded) == 2 * len(half), n
        assert expanded == dict(enumeration._odd_abaci(n)), n


def test_odd_partitions_of_two_powers_are_hooks():
    for k in (2, 3, 4):
        n = 1 << k
        got = set(enumerate_odd_partitions(n))
        hooks = {Partition((n - i,) + (1,) * i) for i in range(n)}
        assert got == hooks


def test_oracle_counts_frozen_rows():
    for n, a, one, two, three, diff, not4 in FROZEN[3:6]:
        rep = oracle_counts(n)
        assert rep == CountReport(n, a, one, two, three, diff, not4, "oracle")


def test_oracle_bound():
    # the sweep's one limit is ENUMERATION_LIMIT: no route takes a bound of its
    # own, and the formula routes answer to the walk's ceiling alone
    for route in (oracle_counts, alternating.alternating_oracle, delta, formula_counts,
                  alternating.delta_circ, alternating.formula_alt_counts):
        assert "oracle_bound" not in inspect.signature(route).parameters, route
    assert list(inspect.signature(enumeration._sweep).parameters) == ["lo", "hi"]
    with pytest.raises(SizeLimitError, match="^the oracle sweep of all partitions of a 71-bit "
                                             "number exceeds the enumeration bound 80$"):
        oracle_counts(2**70)
    with pytest.raises(TypeError):
        oracle_counts(5, oracle_bound=5)
    assert oracle_counts(5).a == 4


def test_sweep_refuses_past_the_enumeration_limit():
    with pytest.raises(SizeLimitError, match="^the oracle sweep of all partitions of 81 "
                                             f"exceeds the enumeration bound {ENUMERATION_LIMIT}$"):
        oracle_counts(ENUMERATION_LIMIT + 1)


def test_oracle_counts_past_40_match_the_exact_reference():
    # perfbench/reference.json holds a1, a2, a3 for n <= 48 from exact-integer
    # dimensions, computed apart from the sweep
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
    rows = {row[0]: tuple(row[1:4]) for row in json.loads(path.read_text())["sym"]}
    for n in range(41, 49):
        rep = oracle_counts(n)
        assert (rep.a1, rep.a2, rep.a3) == rows[n], n


def test_range_walk_places_every_partition_of_v2_at_most_1_once_with_its_class():
    # the reference class of each partition of k <= 18 with v2 <= 1, from its
    # checked twin; a shape of weight 2 stands for its conjugate too, which the
    # walk skips
    want = {(k, p.abacus): c for k in range(19) for p in enumerate_partitions(k)
            if (c := dim_mod4(Partition(p.parts))).v2 <= 1}
    for lo in range(19):
        for hi in range(lo, 19):
            walked = [((k, y), DimClass(v, -1 if par else 1))
                      for k, x, v, par, weight in enumeration._classified(lo, hi)
                      for y in (x, conjugate_mask(x))[:weight]]
            assert sorted(walked) == sorted(
                item for item in want.items() if lo <= item[0][0] <= hi), (lo, hi)


def test_range_walk_yields_the_v2_at_most_1_shapes_of_the_full_walk():
    # the full walk classifies every partition of [0, 22].  A shape of weight 2
    # stands for its conjugate too, which the walk skips; one of weight 1 is
    # square and its conjugate, when another shape, is walked in its own right.
    # So the shapes a range yields, each with its weight's share of its
    # conjugate pair, are each partition of v2 <= 1 in range once, with its class
    want = {x: (k, v, par) for k, x, v, par in full_classified(0, 22) if v <= 1}
    for lo in range(23):
        for hi in range(lo, 23):
            walked = [(y, (k, v, par)) for k, x, v, par, weight in enumeration._classified(lo, hi)
                      for y in (x, conjugate_mask(x))[:weight]]
            assert len(walked) == len(dict(walked)), (lo, hi)
            assert dict(walked) == {x: c for x, c in want.items() if lo <= c[0] <= hi}, (lo, hi)


def test_the_packed_closing_test_holds_at_its_bounds():
    # the tables at the enumeration bound, checked against the bounds their
    # comment states: V[h] <= 74, a reachable gain <= 78, thresholds up to 76
    # (the walk meets 2..76; 1 is checked too).  For every threshold t, fields
    # of v2 less val of 0, t - 1, t and the largest stated, side by side: each
    # field of under[t] - fields must be 0x7FFF + t - f, so none borrows, with
    # bit 15 set exactly when f < t
    hi = ENUMERATION_LIMIT
    vfact = [k - k.bit_count() for k in range(hi + 1)]
    high, gain, under, above = enumeration._closing_tables(vfact)
    ones = high // 0xFF

    def fields(packed):
        return [packed >> 16 * h & 0xFFFF for h in range(hi + 1)]

    v2s, _, _ = _tables(1 << hi.bit_length())
    assert max(sum(v2s[1:h]) for h in range(hi + 1)) == 74
    assert fields(high) == [0xFF] * (hi + 1) and high >> 16 * (hi + 1) == 0
    assert all(g == (vfact[h + o] - vfact[h] if h + o <= hi else enumeration._PAST)
               for o in range(hi + 1) for h, g in enumerate(fields(gain[o])))
    assert max(vfact[h + o] - vfact[h] for o in range(hi + 1) for h in range(hi + 1 - o)) == 78
    largest = 2 + vfact[hi - 1]
    assert largest == 76 and len(under) > largest
    assert all(above[j] == sum(1 << 16 * h + 15 for h in range(j, hi + 1)) for j in range(hi + 1))
    for t in range(1, largest + 1):
        values = (0, t - 1, t, 74 + 78, 74 + enumeration._PAST)
        f = [values[h % len(values)] for h in range(hi + 1)]
        got = fields(under[t] - sum(v << 16 * h for h, v in enumerate(f)))
        assert got == [0x7FFF + t - v for v in f], t
        assert [g >> 15 for g in got] == [int(v < t) for v in f], t


def test_halved_sweep_tallies_as_the_full_sweep():
    # the reference walks every partition of [0, 30] and tests each square one
    # for self-conjugacy.  Only a range from 0 walks the empty shape, which
    # must weigh 1
    want = full_tallies(0, 30)
    for lo in range(31):
        for hi in range(lo, 31):
            with mock.patch.object(enumeration, "_tallies", {}):
                got = enumeration._sweep(lo, hi)
            assert got == {k: want[k] for k in range(lo, hi + 1)}, (lo, hi)


def test_one_range_sweep_tallies_as_the_per_size_sweeps():
    clear_caches()
    together = dict(enumeration._sweep(1, 30))
    assert sorted(together) == list(range(1, 31))
    for n in range(1, 31):
        clear_caches()
        assert enumeration._sweep(n, n) == {n: together[n]}, n
    clear_caches()


def test_range_walk_refuses_past_the_enumeration_limit_before_it_starts(monkeypatch):
    # the sweep's gate stands in front of the walk, which is never started
    walks = []
    monkeypatch.setattr(enumeration, "_classified", lambda lo, hi: walks.append((lo, hi)))
    with pytest.raises(SizeLimitError, match=f"enumeration bound {ENUMERATION_LIMIT}$"):
        enumeration._sweep(0, ENUMERATION_LIMIT + 1)
    assert walks == []


def test_every_report_the_package_builds_holds_its_invariants():
    # the reports check nothing when built: each constructor derives a, delta
    # and m4 (a_circ and delta_circ) from the residue counts, and this holds it
    for n in range(1, 41):
        for rep in (formula_counts(n), oracle_counts(n)):
            assert rep.a == rep.a1 + rep.a3, rep
            assert rep.delta == rep.a1 - rep.a3, rep
            assert rep.m4 == rep.a + rep.a2, rep
            assert rep.source in ("formula", "oracle", "mixed"), rep
        if n >= 3:
            for alt in (alternating.formula_alt_counts(n), alternating.alternating_oracle(n)):
                assert alt.a_circ == alt.a1_circ + alt.a3_circ, alt
                assert alt.delta_circ == alt.a1_circ - alt.a3_circ, alt


def test_sources():
    assert formula_counts(6).source == "formula"
    assert formula_counts(13).source == "mixed"
    assert oracle_counts(6).source == "oracle"


def test_clear_caches_keeps_answers_stable():
    before = formula_counts(14)
    clear_caches()
    assert formula_counts(14) == before


def _report_or_refusal(report, n):
    try:
        return report(n)
    except SizeLimitError as exc:
        assert "64-bit line" in str(exc) or "walk's ceiling" in str(exc), str(exc)
        return None


@given(st.integers(min_value=1, max_value=2**200))
def test_reports_hold_their_invariants_or_refuse(n):
    # no oracle: each report is checked against the other formulas only.  A
    # ceiling of 2^10 leaves, the largest walk an n <= 40 needs, keeps every
    # example fast; a decorator would trip Hypothesis, so the patch is a block
    with mock.patch.object(enumeration, "WALK_CEILING", 10):
        rep = _report_or_refusal(formula_counts, n)
        if rep is not None:
            assert rep.a == rep.a1 + rep.a3 == count_odd(n)
            assert rep.delta == rep.a1 - rep.a3
            assert (rep.a + rep.delta) % 2 == 0
            assert rep.m4 == rep.a + rep.a2
            assert rep.source in ("formula", "mixed")
        alt = _report_or_refusal(alternating.formula_alt_counts, n)
        if alt is not None:
            assert alt.a_circ == alt.a1_circ + alt.a3_circ
            assert (alt.a_circ + alt.delta_circ) % 2 == 0
            assert alt.a1_circ - alt.a3_circ == alt.delta_circ
