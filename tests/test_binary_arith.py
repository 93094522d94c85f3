import math
import random

import pytest
from hypothesis import given, strategies as st

from dimlab import binary_arith
from dimlab.binary_arith import (
    factorial_sign_parity,
    is_sparse,
    position_sum,
    sign_parity,
    top_two_bits,
    v2,
)
from paper_facts import binom_mod4_counts, bit_positions


def test_v2_values():
    assert [v2(n) for n in range(1, 13)] == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2]
    assert v2(40) == 3
    assert v2(1 << 20) == 20


def test_v2_rejects_zero():
    with pytest.raises(ValueError):
        v2(0)


def test_top_two_bits():
    # single-bit numbers score 1, otherwise 1 plus the second bit
    assert top_two_bits(1) == 1
    assert top_two_bits(8) == 1
    assert top_two_bits(12) == 2  # 0b1100
    assert top_two_bits(9) == 1  # 0b1001
    assert top_two_bits(6) == 2  # 0b110
    assert top_two_bits(5) == 1  # 0b101


def test_bit_positions():
    assert bit_positions(0) == frozenset()
    assert bit_positions(42) == {1, 3, 5}
    assert bit_positions(1) == {0}
    assert sum(bit_positions(44)) == 10


def test_position_sum_is_the_sum_of_the_bit_positions():
    # the popcount route against the one that lists every 1-digit, on every n
    # below 2^12 and on seeded 1000-bit n, whose masks are the longest cached
    for n in range(1 << 12):
        assert position_sum(n) == sum(bit_positions(n)), n
    rng = random.Random(12)
    for _ in range(50):
        n = rng.getrandbits(1000) | 1 << 999
        assert position_sum(n) == sum(bit_positions(n))
    assert position_sum((1 << 1000) - 1) == 999 * 1000 // 2
    with pytest.raises(ValueError):
        position_sum(-1)


def test_odd_sign_values():
    # sign parity of the odd part mod 4: 1 when it is 3 mod 4
    assert sign_parity(12) == 1  # odd part 3
    assert sign_parity(20) == 0  # odd part 5
    assert sign_parity(1) == 0
    assert sign_parity(7) == 1
    assert [sign_parity(n) for n in range(1, 9)] == [0, 0, 1, 0, 0, 1, 1, 0]


def test_odd_sign_matches_definition():
    for n in range(1, 4000):
        odd = n >> v2(n)
        assert sign_parity(n) == (0 if odd % 4 == 1 else 1)


def test_odd_sign_multiplicative():
    for a in range(1, 400):
        for b in range(a, 400):
            assert sign_parity(a * b) == sign_parity(a) ^ sign_parity(b)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
def test_odd_sign_multiplicative_random(a, b):
    assert sign_parity(a * b) == sign_parity(a) ^ sign_parity(b)


def test_factorial_sign_closed_form():
    # running product of odd-part signs against the bit-statistics form
    parity = 0
    for n in range(1, 20001):
        parity ^= sign_parity(n)
        assert factorial_sign_parity(n) == parity
    assert [factorial_sign_parity(n) for n in (0, 1, 4, 7)] == [0, 0, 1, 1]


def test_factorial_valuation_is_n_minus_ones():
    total = 0
    for n in range(1, 10001):
        total += v2(n) if n % 2 == 0 else 0
        assert total == n - bin(n).count("1")


def test_is_sparse():
    assert is_sparse(42)
    assert not is_sparse(6)
    assert is_sparse(1)
    assert not is_sparse(2**10 + 2**9)


def test_binom_counts_small():
    assert binom_mod4_counts(3) == (2, 2)
    assert binom_mod4_counts(5) == (4, 0)
    assert binom_mod4_counts(6) == (2, 2)
    assert binom_mod4_counts(0) == (1, 0)


def test_binom_counts_match_direct_census():
    for n in range(0, 130):
        ones = sum(1 for k in range(n + 1) if math.comb(n, k) % 4 == 1)
        threes = sum(1 for k in range(n + 1) if math.comb(n, k) % 4 == 3)
        assert binom_mod4_counts(n) == (ones, threes)


def test_binom_balance_on_non_sparse():
    for n in range(1, 300):
        if not is_sparse(n):
            c1, c3 = binom_mod4_counts(n)
            assert c1 == c3, n


def test_sparse_rows_are_unbalanced():
    # sparse n: every odd entry is 1 mod 4, so the counts cannot tie
    for n in (1, 2, 4, 5, 8, 10, 21, 42):
        c1, c3 = binom_mod4_counts(n)
        assert c3 == 0
        assert c1 == 2 ** bin(n).count("1")


@pytest.mark.parametrize("size", [1, 2, 64, 4096])
def test_tables_match_the_functions(size):
    # the tables are built from v2, sign_parity and factorial_sign_parity, so
    # they are checked against what those functions compute by definition: the
    # 2s divided out, the odd part mod 4, and the running XOR of the sign column
    v2s, signs, facts = binary_arith._tables(size)
    assert len(v2s) == len(signs) == len(facts) == size
    assert (v2s[0], signs[0], facts[0]) == (0, 0, 0)
    running = 0
    for d in range(1, size):
        odd, twos = d, 0
        while odd % 2 == 0:
            odd, twos = odd // 2, twos + 1
        running ^= signs[d]
        assert (v2s[d], signs[d], facts[d]) == (twos, int(odd % 4 == 3), running), d


def test_sweep_reads_no_table_past_twice_its_range(monkeypatch):
    # a big dim_mod4 builds a big table; a later sweep must not read it
    from dimlab import enumeration
    from dimlab.partitions import Partition, dim_mod4

    dim_mod4(Partition((5000,)))
    asked = []

    def spy(size):
        asked.append(size)
        return binary_arith._tables(size)

    monkeypatch.setattr(enumeration, "_tables", spy)
    for hi in (1, 17, 28):
        # a cold sweep, leaving the tallies other tests warmed in place
        monkeypatch.setattr(enumeration, "_tallies", [])
        enumeration._sweep(hi)
        assert asked and max(asked) <= 2 * hi, (hi, asked)
        asked.clear()
