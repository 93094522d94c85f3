"""The committed delta table for the open case (leading binary "11").

tests/data/make_leading_11_delta.py wrote the table from two routes; here
the fallback of `delta` is replayed against all of it and against the
walk over every leaf, and the overlap with the benchmark's reference is
checked.
"""

import json
from pathlib import Path

from dimlab.enumeration import FALLBACK, _odd_abaci, clear_caches, count_odd, delta

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "data" / "leading_11_delta.json").read_text())
ROWS = {row["n"]: row for row in TABLE["rows"]}


def test_table_covers_the_open_case_of_bit_lengths_6_and_7():
    want = [n for n in range(32, 128)
            if n >> (n.bit_length() - 2) == 0b11 and n.bit_count() >= 3]
    assert sorted(ROWS) == want
    for n, row in ROWS.items():
        assert row["a"] == count_odd(n)
        assert (row["a"] + row["delta"]) % 2 == 0
        assert {"walk", "per_leaf"} <= set(row["routes"]) <= set(TABLE["routes"])


def test_table_agrees_with_the_benchmark_reference():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    overlap = {int(n): d for n, d in reference["leading_11_delta"].items()}
    assert sorted(overlap) == list(range(49, 64))
    for n, d in overlap.items():
        assert ROWS[n]["delta"] == d
        assert "perfbench_reference" in ROWS[n]["routes"]


def test_fallback_reproduces_the_whole_table():
    # all 46 rows, 49..63 and 97..127
    for n in ROWS:
        assert delta(n) == (ROWS[n]["delta"], FALLBACK)


def test_fallback_equals_the_leaf_walk():
    # the popcount sum of the top level against the sum over every leaf of the
    # walk, at each leading-"11" n <= 127 whose walk visits at most 2^16
    # leaves.  Both sides read the same _top_level_steps mask, so this checks
    # only the popcount arithmetic; the mask itself is checked per parent
    # in tests/test_parents.py and, through dim_mod4 of each leaf's checked
    # twin, by test_streamed_classes_match_their_checked_twins
    ns = [n for n in range(4, 128) if n >> (n.bit_length() - 2) == 0b11
          and n.bit_count() >= 3 and count_odd(n) <= 1 << 16]
    assert len(ns) == 43 and ns[0] == 7 and ns[-1] == 115
    clear_caches()
    for n in ns:
        assert delta(n) == (sum(1 - 2 * parity for _, parity in _odd_abaci(n)), FALLBACK), n


def test_prefix_1110_stabilises_conjecture():
    """Conjecture, not a theorem: delta(7 * 2^s + m) == delta(7 * 2^(s-1) + m)
    for 0 <= m < 2^(s-2), checked at s = 2, 3 and 4.

    No proof is known.  These are the 7 pairs whose n the committed table
    (n >= 49) or a cheap walk (n <= 40) reaches, e.g. (113, 57) -> 32 and
    (114, 58) -> -64.
    """
    def value(n):
        return ROWS[n]["delta"] if n >= 49 else delta(n)[0]

    for s in (2, 3, 4):
        for m in range(1 << (s - 2)):
            big, small = (7 << s) + m, (7 << (s - 1)) + m
            assert value(big) == value(small), (big, small)
