import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from dimlab.beta_sets import first_column_hooks, t_core
from dimlab.binary_arith import sign_parity, top_two_bits
from dimlab import enumeration
from dimlab.enumeration import FALLBACK, _odd_abaci, delta, enumerate_odd_partitions
from dimlab.errors import SizeLimitError
from dimlab.parents import (
    _ODD_CLASSES,
    _hook_additions,
    _leaves,
    _top_level_masks,
    _top_level_steps,
    _top_level_total,
    all_parents,
    predict_parent_sign,
    sign_flip_parity,
)
from dimlab.partitions import Partition, dim_mod4, enumerate_partitions
from paper_facts import (_between, _flip_parity, _sign_step, added_hooks, hook_params,
                         parity_gap, top_level_sum)


def column_hooks(p):
    """The first-column hooks of p, largest first."""
    x = first_column_hooks(p).mask
    return [h for h in reversed(range(x.bit_length())) if x >> h & 1]


def kinds(mu, r):
    """all_parents(mu, r) split into kind I, kind II with shift <= 2^(r-1), and the rest."""
    half = 1 << (r - 1)
    recs = all_parents(mu, r)
    return ([rec for rec in recs if rec.kind == "I"],
            [rec for rec in recs if rec.kind == "II" and rec.param <= half],
            [rec for rec in recs if rec.kind == "II" and rec.param > half])


def test_parents_of_single_box():
    mu = Partition((1,))
    recs = all_parents(mu, 2)
    assert [(r.kind, r.param, r.affected, str(r.parent)) for r in recs] == [
        ("I", 1, 5, "5"),
        ("II", 1, 4, "3,2"),
        ("II", 2, 4, "2,2,1"),
        ("II", 4, 4, "1,1,1,1,1"),
    ]
    assert all(1 << r.parent.size.bit_length() - 1 == 4 for r in recs)  # the added hook's length
    assert [sign_flip_parity(r) for r in recs] == [0, 0, 0, 0]
    assert [predict_parent_sign(r, 1) for r in recs] == [1, 1, 1, 1]


def test_parent_counts_match_hook_set_size():
    for m in range(0, 8):
        for mu in enumerate_partitions(m):
            for r in (3, 4):
                k = len(column_hooks(mu))
                recs = all_parents(mu, r)
                assert sum(rec.kind == "I" for rec in recs) == k
                assert sum(rec.kind == "II" for rec in recs) == (1 << r) - k
                assert len({rec.parent for rec in recs}) == 1 << r
                # the kinds and params, read off the core's beads and gaps in position
                # order, then kind I first with each kind's order kept
                t, x = 1 << r, mu.abacus
                listed = zip(["I" if x >> j & 1 else "II" for j in range(t - 1, -1, -1)],
                             hook_params(x, t))
                want = sorted(listed, key=lambda kind_param: kind_param[0])
                assert [(rec.kind, rec.param) for rec in recs] == want


def test_parents_are_exactly_the_core_fiber():
    for r in (2, 3):
        t = 1 << r
        for m in range(0, min(t, 5)):
            for mu in enumerate_partitions(m):
                got = {rec.parent for rec in all_parents(mu, r)}
                want = {lam for lam in enumerate_partitions(m + t) if t_core(lam, t) == mu}
                assert got == want, (mu, r)


def test_parent_sizes_and_affected_hook():
    for mu in enumerate_partitions(4):
        for rec in all_parents(mu, 3):
            assert rec.parent.size == 12
            assert rec.affected in column_hooks(rec.parent)


def test_core_validation():
    with pytest.raises(ValueError):
        all_parents(Partition((2, 2)), 2)
    with pytest.raises(ValueError):
        all_parents(Partition((1,)), 0)


def test_parents_past_the_enumeration_bound_are_refused():
    assert len(all_parents(Partition((16,)), 6)) == 64  # parents of size 80
    with pytest.raises(SizeLimitError):
        all_parents(Partition((17,)), 6)
    with pytest.raises(SizeLimitError):
        all_parents(Partition(()), 40)


def test_a_core_past_4300_digits_is_refused_by_its_bit_length():
    # str() of a size past Python's 4300-digit limit raises; the messages name
    # its bit length instead, and a size of 64 bits or less by its digits
    core = Partition((int("9" * 4300),) * 3)
    with pytest.raises(ValueError,
                       match="^core size a 14286-bit number must be below 2\\^3 = 8$") as refusal:
        all_parents(core, 3)
    assert refusal.type is ValueError
    with pytest.raises(SizeLimitError, match="^parents of size a 14286-bit number \\+ 2\\^14286 "):
        all_parents(core, 14286)
    with pytest.raises(ValueError, match="^core size 9 must be below 2\\^3 = 8$"):
        all_parents(Partition((9,)), 3)


def test_a_huge_r_is_refused_without_building_two_to_the_r():
    # 2^(10^8) alone would take about 12 MiB; the refusal compares bit lengths
    core = Partition((3, 1))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=r"2\^100000000 exceed"):
            all_parents(core, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parents_of_odd_cores_are_odd():
    for m in range(0, 8):
        for mu in enumerate_odd_partitions(m):
            r = max(2, m.bit_length())
            if m >= 1 << r:
                r += 1
            for rec in all_parents(mu, r):
                assert dim_mod4(rec.parent).v2 == 0, rec


def test_type1_affected_avoids_half_shift():
    # with m below 2^(R-1), the slot one half-step under the new element
    # is never occupied
    for r in (2, 3):
        half = 1 << (r - 1)
        for m in range(0, half):
            for mu in enumerate_odd_partitions(m):
                for rec in kinds(mu, r)[0]:
                    assert rec.affected - half not in column_hooks(rec.parent)


def test_type2_split_and_admissible_shifts():
    # small shifts are all admissible; large ones shrink by the set size
    for r in (2, 3):
        half = 1 << (r - 1)
        for m in range(0, half):
            for mu in enumerate_odd_partitions(m):
                _, low, high = kinds(mu, r)
                assert [rec.param for rec in low] == list(range(1, half + 1))
                assert len(high) == half - len(column_hooks(mu))


def test_count_between():
    x = Partition((2, 2, 1)).abacus  # hook set {4, 3, 1}
    assert _between(x, 4, 2) == 1
    assert _between(x, 4, 4) == 2


partitions_st = st.lists(st.integers(min_value=1, max_value=12), max_size=8).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))


@given(partitions_st, st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=6))
@example(Partition((2, 2, 1)), 0, 3)  # window (-4, 4) starts below 0
def test_count_between_is_the_brute_count(p, i, r_power):
    hooks = column_hooks(p)
    if not hooks:
        return
    h = hooks[i % len(hooks)]
    lo = h - (1 << r_power)
    assert _between(p.abacus, h, 1 << r_power) == sum(1 for y in hooks if lo < y < h)


SMALL_CORES = {r: [mu for m in range(1 << r) for mu in enumerate_partitions(m)]
               for r in range(1, 5)}


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.tuples(st.sampled_from(SMALL_CORES[r]), st.just(r))))
def test_every_parent_reduces_to_its_core(core_and_r):
    mu, r = core_and_r
    recs = all_parents(mu, r)
    assert len(recs) == 1 << r
    for rec in recs:
        assert t_core(rec.parent, 1 << r) == mu
        assert rec.affected in column_hooks(rec.parent)


def _flip_product_parity(rec):
    # the defining product: the parity of the product over x in
    # hooks(parent) - {h} of the odd-part signs of |h - x| and |h - 2^R - x|
    h = rec.affected
    t = 1 << rec.parent.size.bit_length() - 1  # the core's size is below t, so t is the top bit
    par = 0
    for x in column_hooks(rec.parent):
        if x == h:
            continue
        par ^= sign_parity(abs(h - x)) ^ sign_parity(abs(h - t - x))
    return par


def test_flip_parity_matches_the_defining_product():
    # the production route, read off the record's step, and the per-parent
    # window count both against the product of odd-part signs, on every parent
    checked = 0
    for r, cores in SMALL_CORES.items():
        for mu in cores:
            for rec in all_parents(mu, r):
                eta = _flip_product_parity(rec)
                assert sign_flip_parity(rec) == eta, rec
                assert _flip_parity(rec.parent.abacus, rec.affected, 1 << r) == eta, rec
                checked += 1
    assert checked == sum(len(cores) << r for r, cores in SMALL_CORES.items())


def test_the_record_step_matches_each_parent_on_every_core():
    # dimlab parents takes any core, not only odd ones: every parent of every
    # core of size below t for t = 2..16, and of size 21 or less for t = 32,
    # against the per-parent window count on the parent's own abacus
    checked = 0
    for r, below in ((1, 2), (2, 4), (3, 8), (4, 16), (5, 22)):
        t = 1 << r
        for m in range(below):
            for mu in enumerate_partitions(m):
                for rec in all_parents(mu, r):
                    n, h = rec.parent.size, rec.affected
                    eta = _flip_parity(Partition(rec.parent.parts).abacus, h, t)
                    assert sign_flip_parity(rec) == eta, rec
                    if n > 3:
                        step = _sign_step(top_two_bits(n), top_two_bits(h), eta)
                        assert predict_parent_sign(rec, 1) == (-1 if step else 1), rec
                        assert predict_parent_sign(rec, -1) == (1 if step else -1), rec
                    checked += 1
    assert checked == 123_528


def test_predicted_sign_matches_dimensions():
    # dimlab parents predicts a sign for any core, not only odd ones: every
    # parent of size above 3 of every core of size below t, for t = 2..16,
    # against the hook products of the checked twins, which carry no class
    checked = 0
    for r in range(1, 5):
        for m in range(1 << r):
            for mu in enumerate_partitions(m):
                core_sign = dim_mod4(Partition(mu.parts)).sign
                for rec in all_parents(mu, r):
                    if rec.parent.size > 3:
                        twin = Partition(rec.parent.parts)
                        assert predict_parent_sign(rec, core_sign) == dim_mod4(twin).sign, rec
                        checked += 1
    assert checked == 11_332


def test_predict_rejects_tiny_parents():
    rec = all_parents(Partition(()), 1)[0]
    assert rec.parent.size == 2
    with pytest.raises(ValueError):
        predict_parent_sign(rec, 1)


def signed(recs, core):
    """Sum of the parents' dimension signs, normalized by the core's sign.

    The core's sign is computed on its checked twin, which carries no class.
    """
    return dim_mod4(Partition(core.parts)).sign * sum(dim_mod4(rec.parent).sign for rec in recs)


def test_signed_sums_match_closed_forms():
    for r in (2, 3):
        half = 1 << (r - 1)
        for m in range(0, half):
            for mu in enumerate_odd_partitions(m):
                k = len(column_hooks(mu))
                type1, low, high = kinds(mu, r)
                assert signed(type1, mu) == (0 if k % 2 == 0 else 1)
                assert signed(low + high, mu) == (2 if k % 2 == 0 else 1) - 2 * (-1) ** m
                gap = parity_gap(mu.abacus)
                assert signed(low, mu) == 2 * (-1) ** k * gap
                assert signed(high, mu) == (0 if k % 2 == 0 else 1)


def sizes(t):
    """Parent sizes n = t, whose top digits are "10", and n = 3t/2, whose are "11".

    _hook_additions reads only the top bit and the top two digits of n.
    """
    return t, t + t // 2


def enumerated_steps(core, n):
    """The step parity of each of the t parents of size n of core, t the top
    bit of n, one _flip_parity each, in _hook_additions order."""
    t = 1 << n.bit_length() - 1
    parents, _ = _hook_additions(core, n, 0)
    return [_sign_step(top_two_bits(n), 1 + (2 * h >= 3 * t), _flip_parity(parent, h, t))
            for h, parent in zip(added_hooks(core, t), parents)]


def enumerated_top_level_sum(core, n):
    """The sum of (-1)^step over the t parents of size n of core."""
    return sum(1 - 2 * step for step in enumerated_steps(core, n))


def mask_steps(core, n):
    """The parity _hook_additions yields with each parent of size n of a core
    of parity 0: its bit in the step mask of _top_level_steps, bead x of kind
    I, empty t - shift of kind II, flipped when n starts "10"."""
    t, flip = 1 << n.bit_length() - 1, top_two_bits(n) & 1
    mask = _top_level_steps(core, t, _top_level_masks(t))
    # no bit off the positions below t; split by kind, on the core's beads and on its gaps
    assert mask >> t == 0
    one, two = mask & core, mask & ~core
    abaci, steps = _hook_additions(core, n, 0)
    for j, param, step in zip(range(t - 1, -1, -1), hook_params(core, t), steps):
        if core >> j & 1:
            assert step == one >> param & 1 ^ flip
        else:
            assert step == two >> (t - param) & 1 ^ flip
    # a core of parity 1 lists the same parents, each with the other parity
    assert _hook_additions(core, n, 1) == (abaci, [step ^ 1 for step in steps])
    return steps


def test_top_level_steps_match_each_parent_on_every_odd_core():
    # per parent, so that two wrong bits cannot cancel in a sum: the t parents
    # of each of the 4898 odd cores below t = 2, 4, ..., 32, at both top digits
    checked = 0
    for r in range(1, 6):
        t = 1 << r
        for m in range(t):
            for mu in enumerate_odd_partitions(m):
                core = mu.abacus
                for n in sizes(t):
                    assert mask_steps(core, n) == enumerated_steps(core, n), (mu, n)
                    checked += t
    assert checked == 2 * 151_468


def test_top_level_sum_matches_the_parents_on_every_odd_core():
    # the sum at a size starting "11", and its negation at one starting "10"
    checked = 0
    for r in range(1, 6):
        t = 1 << r
        for m in range(t):
            for mu in enumerate_odd_partitions(m):
                core = mu.abacus
                ten, eleven = sizes(t)
                assert (top_level_sum(core, t) == enumerated_top_level_sum(core, eleven)
                        == -enumerated_top_level_sum(core, ten)), (mu, t)
                checked += 2
    assert checked == 2 * 4898  # 4898 odd cores over t = 2, 4, ..., 32


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda r: st.tuples(
    st.just(1 << r),
    # a first part and a row count of at most t / 2 keep the abacus below t
    st.lists(st.integers(min_value=1, max_value=1 << (r - 1)), max_size=1 << (r - 1)))),
    st.integers(min_value=0, max_value=1))
@example((4, [2, 1]), 0)
@example((256, [128] * 128), 1)
def test_top_level_sum_matches_the_parents_on_any_core(t_and_parts, c):
    # c = 1 takes a parent size starting "10", whose steps all flip, and c = 0 one starting "11"
    t, parts = t_and_parts
    core = Partition(tuple(sorted(parts, reverse=True))).abacus
    assert core.bit_length() <= t
    n = sizes(t)[1 - c]
    steps = enumerated_steps(core, n)
    assert mask_steps(core, n) == steps
    assert (-1) ** c * top_level_sum(core, t) == sum(1 - 2 * step for step in steps)


def test_leaves_are_the_hook_additions_with_their_classes():
    # the stream's leaves, built as each step bit is read, against the int
    # listing: the same abaci in the same order, each with the class of its
    # parity and the size asked for.  Each odd core of size m below t gets
    # both parities at n = t + m and at n with the other second digit, so both
    # "10" and "11".  t = 2..32 takes every such core; t = 64 the 4590 of size
    # below 32 and a seeded sample of up to 40 of each size 32..63 (all 151,470
    # below 64 would take about 37 s)
    rng = random.Random(64)

    def cores(m):
        found = [core for core, _ in _odd_abaci(m)]
        return found if m < 32 else rng.sample(found, min(len(found), 40))

    checked = 0
    for r in range(1, 7):
        t = 1 << r
        for m in range(t):
            for core in cores(m):
                for n in (t + m, t + m ^ t >> 1):
                    for parity in (0, 1):
                        abaci, parities = _hook_additions(core, n, parity)
                        assert [(leaf.abacus, leaf._dim, leaf.size)
                                for leaf in _leaves(core, n, parity)] == [
                            (x, _ODD_CLASSES[q], n) for x, q in zip(abaci, parities)], (core, n)
                        checked += t
    assert checked == 4 * (2 * 2 + 4 * 6 + 8 * 30 + 16 * 270 + 32 * 4590 + 64 * (4590 + 1264))


def test_packed_top_level_sum_is_the_per_core_sum():
    # the fallback's cores for every leading-"11" n with t <= 64, each sign's
    # in one packed int and through delta, which packs K of them per int and
    # then the short last group; then lists of 0, 1, K - 1, K and K + 1 cores
    k = enumeration._PACK
    flushed_and_short = 0
    enumeration.clear_caches()
    for n in range(7, 128):
        if n >> n.bit_length() - 2 == 0b11 and n.bit_count() >= 3:
            t = 1 << n.bit_length() - 1
            groups = ([], [])
            for core, parity in _odd_abaci(n - t, half=True):
                groups[parity].append(core)
            sums = [sum(top_level_sum(core, t) for core in group) for group in groups]
            assert [_top_level_total(group, t) for group in groups] == sums, n
            assert delta(n) == (2 * (sums[0] - sums[1]), FALLBACK), n
            flushed_and_short += any(len(group) > k and len(group) % k for group in groups)
    assert flushed_and_short
    cores = [core for core, _ in _odd_abaci(62)]
    for length in (0, 1, k - 1, k, k + 1):
        for t in (64, 128, 256):
            assert _top_level_total(cores[:length], t) == sum(
                top_level_sum(core, t) for core in cores[:length]), (length, t)


def test_an_empty_field_adds_nothing_from_t_4():
    # _top_level_total pads its group with the core (), abacus 0: its t steps
    # hold exactly t/2 ones for every t >= 4, but not at t = 2
    for r in range(2, 13):
        t = 1 << r
        assert top_level_sum(0, t) == 0, t
        assert _top_level_total([], t) == _top_level_total([0] * 3, t) == 0, t
    assert top_level_sum(0, 2) != 0


def test_the_fallback_keeps_masks_for_powers_of_two_only(monkeypatch):
    # every leading-"11" n < 256 through the fallback, from an empty cache: each
    # count cached is 1 (the listings' one core) or a power of two up to _PACK.
    # Asking for every key of that set then leaves the cache at the set's size
    # only if it held no other key
    monkeypatch.setattr(enumeration, "WALK_CEILING", 64)
    enumeration.clear_caches()
    _top_level_masks.cache_clear()
    for n in range(7, 256):
        if n >> n.bit_length() - 2 == 0b11 and n.bit_count() >= 3:
            assert delta(n)[1] == FALLBACK, n
    assert _top_level_masks.cache_info().currsize > 0
    counts = [1 << k for k in range(enumeration._PACK.bit_length())]
    allowed = {(1 << r, *count) for r in range(8) for count in [(), *zip(counts)]}
    for key in allowed:
        _top_level_masks(*key)
    assert _top_level_masks.cache_info().currsize == len(allowed)
    enumeration.clear_caches()


def test_packed_masks_repeat_the_one_core_masks_in_every_field():
    # the masks of `count` packed cores are the one-core masks, one copy per
    # field of `width` bytes, at least 2t + 2 bits and a whole number of bytes
    for t in (2, 4, 8, 16, 32, 64, 128, 256):
        width, *one = _top_level_masks(t)
        assert 8 * width >= 2 * t + 2 > 8 * width - 8, t
        for count in (0, 1, 2, 5, enumeration._PACK):
            got = _top_level_masks(t, count)
            assert got == (width, *(sum(mask << 8 * width * i for i in range(count))
                                    for mask in one)), (t, count)
