"""Alternating-group counts; the frozen rows were classified with exact
big-integer dimensions, splitting self-conjugate shapes in half."""

from math import prod

import pytest

from dimlab.alternating import (
    AltReport,
    a1_a3_circ,
    a_circ,
    alternating_oracle,
    delta_circ,
    formula_alt_counts,
    hat_m2,
)
from dimlab.binary_arith import odd_sign
from dimlab.enumeration import DEFAULT_ORACLE_BOUND, EXACT, FALLBACK
from dimlab.errors import SizeLimitError
from dimlab.partitions import (
    Partition,
    conjugate,
    diagonal_hooks,
    dim_mod4,
    enumerate_partitions,
    hook_lengths,
    is_hook_partition,
)

# columns: n, a_circ, a1_circ, a3_circ, delta_circ, m2_hat
ALT_FROZEN = [
    (3, 3, 3, 0, 3, 1),
    (4, 4, 3, 1, 2, 1),
    (5, 4, 2, 2, 0, 1),
    (6, 4, 4, 0, 4, 0),
    (7, 4, 2, 2, 0, 0),
    (8, 8, 6, 2, 4, 2),
    (9, 8, 5, 3, 2, 2),
    (10, 8, 4, 4, 0, 0),
    (11, 8, 6, 2, 4, 0),
    (12, 16, 8, 8, 0, 0),
]


@pytest.mark.parametrize("n,a,one,three,diff,twice", ALT_FROZEN)
def test_formulas_match_frozen_table(n, a, one, three, diff, twice):
    rep = formula_alt_counts(n)
    assert (rep.a_circ, rep.a1_circ, rep.a3_circ, rep.delta_circ, rep.m2_hat) == (
        a, one, three, diff, twice,
    )


@pytest.mark.parametrize("n,a,one,three,diff,twice", ALT_FROZEN)
def test_oracle_matches_frozen_table(n, a, one, three, diff, twice):
    rep = alternating_oracle(n)
    assert (rep.a_circ, rep.a1_circ, rep.a3_circ, rep.delta_circ, rep.m2_hat) == (
        a, one, three, diff, twice,
    )
    assert rep.source == "oracle"


def _pair_by_pair(n: int) -> tuple[int, int, int]:
    # the reference route: each unordered conjugate pair restricts to one
    # irreducible of its dimension, each self-conjugate shape to two of half
    ones = threes = twice_odd = 0
    for p in enumerate_partitions(n):
        conj = conjugate(p)
        cls = dim_mod4(p)
        if p == conj:
            # the oracle's derivation rests on this; its assert is gone under -O
            assert cls.v2 >= 1, f"self-conjugate {p} has odd dimension"
            if cls.v2 == 1:
                twice_odd += 1
                if cls.sign == 1:
                    ones += 2
                else:
                    threes += 2
        elif p.parts < conj.parts and cls.v2 == 0:
            if cls.sign == 1:
                ones += 1
            else:
                threes += 1
    return ones, threes, twice_odd


def test_oracle_matches_the_pair_by_pair_walk():
    for n in range(3, 31):
        rep = alternating_oracle(n)
        assert (rep.a1_circ, rep.a3_circ, rep.m2_hat) == _pair_by_pair(n), n


def test_hat_m2_values():
    assert hat_m2(3) == 1
    assert hat_m2(4) == 1
    assert hat_m2(6) == 0
    assert hat_m2(9) == 2
    assert hat_m2(10) == 0
    assert hat_m2(16) == 4
    assert hat_m2(17) == 4
    with pytest.raises(ValueError):
        hat_m2(0)


def test_a_circ_values():
    assert a_circ(1) == 1
    assert a_circ(2) == 1
    assert a_circ(3) == 3
    assert a_circ(4) == 4
    assert a_circ(5) == 4
    assert a_circ(8) == 8


def test_delta_circ_values_and_statuses():
    assert delta_circ(1) == (1, EXACT)
    assert delta_circ(3) == (3, EXACT)
    assert delta_circ(5) == (0, EXACT)
    assert delta_circ(6) == (4, EXACT)
    assert delta_circ(8) == (4, EXACT)
    assert delta_circ(9) == (2, EXACT)
    # 7 inherits the fallback status of the symmetric-group delta
    assert delta_circ(7) == (0, FALLBACK)


def test_a1_a3_circ():
    assert a1_a3_circ(9) == (5, 3)
    assert a1_a3_circ(4) == (3, 1)


def test_sources():
    assert formula_alt_counts(9).source == "formula"
    assert formula_alt_counts(7).source == "mixed"


def test_oracle_bounds():
    with pytest.raises(ValueError):
        alternating_oracle(2)
    with pytest.raises(SizeLimitError):
        alternating_oracle(DEFAULT_ORACLE_BOUND + 1)
    with pytest.raises(SizeLimitError):
        alternating_oracle(9, oracle_bound=8)


def test_report_invariants():
    with pytest.raises(ValueError, match="a1_circ"):
        AltReport(9, 9, 5, 3, 2, 2, "formula")
    with pytest.raises(ValueError, match="delta_circ"):
        AltReport(9, 8, 5, 3, 0, 2, "formula")


def test_diagonal_hooks_carry_the_odd_sign():
    # for a self-conjugate shape the off-diagonal hooks pair into equal
    # factors, so only the diagonal can affect the sign of the odd part
    for n in range(1, 23):
        for p in enumerate_partitions(n):
            if p == conjugate(p):
                assert odd_sign(prod(hook_lengths(p))) == odd_sign(
                    prod(diagonal_hooks(p))
                )


def _two_rows_then_tail(p: Partition, k: int) -> bool:
    half = 1 << (k - 1)
    for i in range(0, half - 1):
        for j in range(i, half - 1):
            parts = tuple(
                x for x in [half - i, half - j] + [2] * i + [1] * (j - i) if x > 0
            )
            if parts == p.parts and tuple(sorted(parts, reverse=True)) == parts:
                return True
    return False


@pytest.mark.parametrize("k", [2, 3, 4])
def test_residue_two_shapes_at_powers_of_two(k):
    n = 1 << k
    for p in enumerate_partitions(n):
        if dim_mod4(p).v2 == 1:
            assert is_hook_partition(p) or _two_rows_then_tail(p, k), p


@pytest.mark.parametrize("k", [2, 3, 4])
def test_residue_two_self_conjugate_shapes_past_powers(k):
    n = (1 << k) + 1
    for p in enumerate_partitions(n):
        if p == conjugate(p) and dim_mod4(p).v2 == 1:
            d = diagonal_hooks(p)
            assert d[0] == n or (len(d) == 3 and d[2] == 1), p


@pytest.mark.parametrize("k", [2, 3, 4])
def test_residue_two_self_conjugate_sign_is_plus(k):
    n = 1 << k
    hits = 0
    for p in enumerate_partitions(n):
        if p == conjugate(p) and dim_mod4(p).v2 == 1:
            hits += 1
            assert dim_mod4(p).sign == 1, p
    assert hits == hat_m2(n)
