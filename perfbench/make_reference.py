"""Regenerate perfbench/reference.json, the answers the benchmark checks against.

Usage, from the root of a dimlab checkout:

    python3 perfbench/make_reference.py

Every count here comes from exact big-integer dimensions: each partition
of n is listed by `enumerate_partitions` and its dimension is computed by
`dim_exact` (the hook-length formula on Python integers), then reduced
mod 4.  Neither `dim_mod4` nor any counting formula is used, so the table
is independent of the code paths the benchmark measures.  The one
exception is the leading-"11" delta table for n = 49..63, copied from a
prototype of the odd-stream signed sum and labelled as such.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dimlab.partitions import conjugate, dim_exact, enumerate_partitions  # noqa: E402

SYM_MAX_N = 48
ALT_MAX_N = 40

# delta(n) = a1(n) - a3(n) for n = 49..63, where n starts "11" in binary
# with at least three ones and no proved formula exists.
LEADING_11_DELTA = {
    49: 0, 50: 0, 51: 0, 52: 0, 53: 0, 54: 0, 55: 0, 56: 0,
    57: 32, 58: -64, 59: 64, 60: 64, 61: -128, 62: -256, 63: 128,
}


def sym_row(n: int) -> list[int]:
    """[n, a1, a2, a3, p(n)]: partitions of n by dimension residue mod 4."""
    tally = [0, 0, 0, 0]
    for p in enumerate_partitions(n):
        tally[dim_exact(p) % 4] += 1
    return [n, tally[1], tally[2], tally[3], sum(tally)]


def alt_row(n: int) -> list[int]:
    """[n, a1_circ, a3_circ, m2_hat] for the alternating group on n letters.

    A conjugate pair restricts to one irreducible of the same dimension; a
    self-conjugate shape of dimension d splits into two of dimension d/2.
    m2_hat counts the self-conjugate shapes with d = 2 mod 4.
    """
    if n <= 2:
        return [n, 1, 0, 0]  # the trivial group has one irreducible, of dimension 1
    ones = threes = m2_hat = 0
    for p in enumerate_partitions(n):
        conj = conjugate(p)
        if p == conj:
            half, rem = divmod(dim_exact(p), 2)
            assert rem == 0, f"self-conjugate {p} has odd dimension"
            if half % 2:
                m2_hat += 1
                if half % 4 == 1:
                    ones += 2
                else:
                    threes += 2
        elif p.parts > conj.parts:
            d = dim_exact(p)
            if d % 4 == 1:
                ones += 1
            elif d % 4 == 3:
                threes += 1
    return [n, ones, threes, m2_hat]


def main() -> None:
    data = {
        "provenance": {
            "sym": (
                "a1, a2, a3 and p(n) for n = 1..48: every partition of n from "
                "enumerate_partitions, classified by dim_exact(p) mod 4 on exact "
                "integers. Written by perfbench/make_reference.py."
            ),
            "alt": (
                "a1_circ, a3_circ, m2_hat for n = 1..40: the same exact dimensions, "
                "one irreducible per conjugate pair and two of dimension d/2 per "
                "self-conjugate shape. Written by perfbench/make_reference.py."
            ),
            "leading_11_delta": (
                "delta = a1 - a3 for n = 49..63 (binary 11..., three or more ones). "
                "Prototype-derived: the signed sum of dim_mod4 signs over "
                "enumerate_odd_partitions(n), a route that agreed with the full "
                "oracle for every n <= 40. A regression reference, not independent "
                "of the code under test."
            ),
        },
        "sym_columns": ["n", "a1", "a2", "a3", "p"],
        "sym": [sym_row(n) for n in range(1, SYM_MAX_N + 1)],
        "alt_columns": ["n", "a1_circ", "a3_circ", "m2_hat"],
        "alt": [alt_row(n) for n in range(1, ALT_MAX_N + 1)],
        "leading_11_delta": {str(n): d for n, d in LEADING_11_DELTA.items()},
    }
    (HERE / "reference.json").write_text(dump(data))


def dump(data: dict) -> str:
    """JSON with one table row per line, so diffs of the data stay readable."""
    fields = []
    for key, value in data.items():
        if isinstance(value, list) and isinstance(value[0], list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            fields.append(f" {json.dumps(key)}: [\n  {rows}\n ]")
        else:
            fields.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


if __name__ == "__main__":
    main()
