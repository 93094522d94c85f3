"""End-to-end acceptance checks.

Every check sweeps formulas against brute-force classification of exact
dimensions and prints one pass/fail line; run with `pytest -s` to see
the lines as they complete.
"""

import functools
import time

import pytest

from dimlab import alternating, enumeration
from dimlab.beta_sets import first_column_hooks, t_core, to_partition
from dimlab.binary_arith import factorial_sign_parity, is_sparse, sign_parity
from dimlab.core_towers import classify_by_tower, row_weights, tower, tower_to_partition, two_core
from dimlab.enumeration import EXACT, FALLBACK
from dimlab.parents import all_parents, predict_parent_sign
from dimlab.partitions import (
    DimClass,
    Partition,
    conjugate,
    conjugate_mask,
    dim_mod4,
    enumerate_partitions,
)
from paper_facts import binom_mod4_counts, parity_gap

ORACLE_MAX = 40
ORACLE_BUDGET_SECONDS = 120.0


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: pass")

        return run

    return wrap


@pytest.fixture(scope="module")
def oracle():
    enumeration.clear_caches()
    alternating.clear_caches()
    start = time.perf_counter()
    reports = {n: enumeration.oracle_counts(n) for n in range(1, ORACLE_MAX + 1)}
    elapsed = time.perf_counter() - start
    # the sweep classifies one partition of each conjugate pair of v2 <= 1
    # from the terms carried down to it; replay one walk over every size up to
    # ORACLE_MAX, each shape of weight 2 with its conjugate, outside the timed
    # sweep.  Every partition up to ORACLE_MAX goes through dim_mod4 of a
    # checked Partition: one of v2 <= 1 must be walked, once, for its size and
    # with its class, and one the walk leaves out must have v2 >= 2
    walked = {}
    route_mismatches = []
    for n, x, v, parity, weight in enumeration._classified(ORACLE_MAX):
        for y in (x, conjugate_mask(x))[:weight]:
            if y in walked:
                route_mismatches.append((n, y))
            walked[y] = (n, DimClass(v, -1 if parity else 1))
    masks = set()
    for n in range(ORACLE_MAX + 1):
        for q in enumerate_partitions(n):
            p = Partition(q.parts)
            masks.add(p.abacus)
            want = dim_mod4(p)
            if walked.pop(p.abacus, None) != ((n, want) if want.v2 <= 1 else None):
                route_mismatches.append((n, p.abacus))
    route_mismatches += walked.items()
    return {"reports": reports, "elapsed": elapsed,
            "route_checked": len(masks), "route_mismatches": route_mismatches}


@criterion("01 odd count matches the oracle up to 40 inside the time budget")
def test_odd_count_formula(oracle):
    assert oracle["elapsed"] < ORACLE_BUDGET_SECONDS
    for n, rep in oracle["reports"].items():
        assert enumeration.count_odd(n) == rep.a, n


@criterion("02 sparse closed form for the signed count")
def test_sparse_delta(oracle):
    hits = 0
    for n, rep in oracle["reports"].items():
        if is_sparse(n):
            hits += 1
            assert enumeration.delta_sparse(n) == rep.delta, n
    assert hits > 10


@criterion("03 leading-digit recursion for the signed count")
def test_delta_recursion(oracle):
    reps = oracle["reports"]
    for n in range(4, ORACLE_MAX + 1):
        r = n.bit_length() - 1
        m = n - (1 << r)
        if m == 0:
            assert reps[n].delta == 0, n
        elif m < 1 << (r - 1):
            want = 0 if m % 2 == 0 else 4 * reps[m].delta
            assert reps[n].delta == want, n


@criterion("04 residue splits where the two leading binary digits are 11")
def test_leading_one_one_values(oracle):
    reps = oracle["reports"]
    assert (reps[3].a1, reps[3].a3) == (2, 0)
    assert (reps[6].a1, reps[6].a3) == (8, 0)
    assert (reps[12].a1, reps[12].a3) == (16, 16)
    assert (reps[24].a1, reps[24].a3) == (64, 64)


@criterion("05 residue-two recursion matches the oracle up to 40")
def test_a2_recursion(oracle):
    assert enumeration.a2(4) == 1
    assert enumeration.a2(5) == 1
    assert enumeration.a2(6) == 2
    for n, rep in oracle["reports"].items():
        assert enumeration.a2(n) == rep.a2, n


@criterion("06 sparse shortcut for the residue-two count")
def test_a2_sparse(oracle):
    for n, rep in oracle["reports"].items():
        if not is_sparse(n):
            continue
        assert enumeration.a2_sparse(n) == rep.a2, n
        if n % 2:
            assert enumeration.a2(n) == enumeration.a2(n - 1), n


@criterion("07 parent sign prediction holds for every odd partition, 4..32")
def test_sign_prediction():
    checked = 0
    for n in range(4, 33):
        r = n.bit_length() - 1
        m = n - (1 << r)
        for mu in enumeration.enumerate_odd_partitions(m):
            # the checked twin carries no class: the core's sign is computed
            mu_sign = dim_mod4(Partition(mu.parts)).sign
            for rec in all_parents(mu, r):
                assert predict_parent_sign(rec, mu_sign) == dim_mod4(rec.parent).sign, rec
                checked += 1
        assert sum(1 for _ in enumeration.enumerate_odd_partitions(n)) == enumeration.count_odd(n)
    assert checked > 4000


@criterion("08 signed parent sums for odd cores below the half threshold")
def test_signed_sums():
    for r in (2, 3, 4):
        half = 1 << (r - 1)
        for m in range(0, half):
            if (1 << r) + m > 28:
                continue
            for mu in enumeration.enumerate_odd_partitions(m):
                k = first_column_hooks(mu).mask.bit_count()
                core_sign = dim_mod4(Partition(mu.parts)).sign
                # signed sums, normalized by the core's sign, by kind and shift
                sums = {"I": 0, "II low": 0, "II high": 0}
                for rec in all_parents(mu, r):
                    cls = dim_mod4(rec.parent)
                    assert cls.v2 == 0, rec
                    group = "I" if rec.kind == "I" else (
                        "II low" if rec.param <= half else "II high")
                    sums[group] += cls.sign * core_sign
                assert sums["I"] == (0 if k % 2 == 0 else 1), (mu, r)
                t2 = sums["II low"] + sums["II high"]
                assert t2 == (2 if k % 2 == 0 else 1) - 2 * (-1) ** m, (mu, r)
                gap = parity_gap(mu.abacus)
                assert sums["II low"] == 2 * (-1) ** k * gap, (mu, r)
                assert sums["II high"] == (0 if k % 2 == 0 else 1), (mu, r)


@criterion("09 factorial odd-part sign closed form up to 100000 in one second")
def test_factorial_sign():
    start = time.perf_counter()
    parity = 0
    for n in range(1, 100001):
        parity ^= sign_parity(n)
        assert factorial_sign_parity(n) == parity, n
    assert time.perf_counter() - start < 1.0


@criterion("10 tower weights classify the residue for every partition up to 24")
def test_tower_classification():
    for n in range(0, 25):
        for p in enumerate_partitions(n):
            cls = dim_mod4(p)
            want = "odd" if cls.v2 == 0 else ("two_mod_4" if cls.v2 == 1 else "other")
            assert classify_by_tower(p) == want, p


@criterion("11 bijections round-trip and census 2-cores equal hook removal up to 24")
def test_bijections():
    # every node of a tower over a partition of n <= 24 is itself such a
    # partition, so the 2-core check covers every split the towers make
    for n in range(0, 25):
        for p in enumerate_partitions(n):
            assert to_partition(first_column_hooks(p)) == p
            assert two_core(p) == t_core(p, 2), p
            t = tower(p)
            assert sum(w << k for k, w in enumerate(row_weights(t))) == n
            assert tower_to_partition(t) == p
            assert tower(conjugate(p)).heights == tuple(row[::-1] for row in t.heights)


@criterion("12 alternating-group counts match the restriction oracle up to 40")
def test_alternating_counts(oracle):
    assert alternating.a_circ(3) == 3
    assert alternating.delta_circ(8) == (4, EXACT)
    assert alternating.delta_circ(9) == (2, EXACT)
    # the fixture has run the shared sweep for every n, so these are cache reads
    for n in range(3, max(oracle["reports"]) + 1):
        rep = alternating.alternating_oracle(n)
        got = alternating.formula_alt_counts(n)
        assert (got.a_circ, got.a1_circ, got.a3_circ, got.delta_circ, got.m2_hat) == (
            rep.a_circ, rep.a1_circ, rep.a3_circ, rep.delta_circ, rep.m2_hat,
        ), n


@criterion("13 binomial residue balance for non-sparse rows up to 2000")
def test_binomial_balance():
    start = time.perf_counter()
    for n in range(1, 2001):
        c1, c3 = binom_mod4_counts(n)
        if is_sparse(n):
            assert c3 == 0 and c1 == 1 << bin(n).count("1"), n
        else:
            assert c1 == c3, n
    assert time.perf_counter() - start < 5.0


@criterion("14 fallback statuses are honest about what was proved")
def test_status_honesty(oracle):
    # leading binary digits "11" with three or more ones: no formula
    open_cases = [n for n in range(2, ORACLE_MAX + 1)
                  if n >> (n.bit_length() - 2) == 0b11 and n.bit_count() >= 3]
    assert open_cases == [7, 13, 14, 15, *range(25, 32)]
    for n in open_cases:
        value, status = enumeration.delta(n)
        assert status == FALLBACK, n
        assert value == oracle["reports"][n].delta, n
    assert enumeration.delta(11) == (8, EXACT)
    assert enumeration.delta(12) == (0, EXACT)


@criterion("15 odd-stream signed sum equals the oracle's delta up to 40")
def test_odd_stream_delta(oracle):
    for n, report in oracle["reports"].items():
        # each leaf's sign computed afresh on its checked twin, not read
        # from the class the walk gave it
        signed = sum(dim_mod4(Partition(p.parts)).sign
                     for p in enumeration.enumerate_odd_partitions(n))
        assert signed == report.delta, n


@criterion("16 the sweep's walk and dim_mod4 agree on every partition up to 40")
def test_dim_mod4_routes_agree_up_to_40(oracle):
    # every partition once through dim_mod4; the walk yields exactly those of
    # v2 <= 1, each once, of the size and class it was walked with
    assert oracle["route_checked"] == 215_308  # p(0) + p(1) + ... + p(40)
    assert oracle["route_mismatches"] == []


@criterion("17 every carried sign equals its leaf's dimension sign up to 40")
def test_carried_signs_per_leaf():
    for n in range(0, ORACLE_MAX + 1):
        leaves = list(enumeration._odd_abaci(n))
        partitions = list(enumeration.enumerate_odd_partitions(n))
        assert len(leaves) == len(partitions) == enumeration.count_odd(n), n
        for (_, parity), p in zip(leaves, partitions):
            assert (-1 if parity else 1) == dim_mod4(Partition(p.parts)).sign, (n, p)
