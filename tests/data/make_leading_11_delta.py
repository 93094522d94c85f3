"""Regenerate tests/data/leading_11_delta.json, the open-case delta table.

Usage, from the root of a dimlab checkout:

    python3 tests/data/make_leading_11_delta.py

The table holds delta(n) = a1(n) - a3(n) for every n of bit length 6 or
7 whose binary form starts "11" and has three or more ones (49..63 and
97..127; 48 and 96 have two ones and a closed form).  No formula is
proved there.  Each row is computed by two routes, which must agree:

- "walk": the carried-sign odd stream that `delta` falls back to, the
  sum of 1 - 2 * parity over `enumeration._odd_abaci(n)`;
- "per_leaf": the sum of `dim_mod4(Partition(p.parts)).sign` over the
  partitions p that `enumerate_odd_partitions(n)` yields, each dimension
  computed afresh on the checked twin of the leaf (a leaf itself carries
  the class that the walk gave it, which `dim_mod4` would return).

Rows for 49..63 must also equal the leading-"11" table of
perfbench/reference.json, which is read here and never written.  The
per-leaf route visits about 9.5 million partitions and takes several
minutes in CPython.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dimlab import enumeration  # noqa: E402
from dimlab.partitions import Partition, dim_mod4  # noqa: E402

OUT = HERE / "leading_11_delta.json"
REFERENCE = ROOT / "perfbench" / "reference.json"
SIZES = [n for n in (*range(48, 64), *range(96, 128)) if n.bit_count() >= 3]


def walk_delta(n: int) -> int:
    return sum(1 - 2 * parity for _, parity in enumeration._odd_abaci(n))


def per_leaf_delta(n: int) -> int:
    return sum(dim_mod4(Partition(p.parts)).sign for p in enumeration.enumerate_odd_partitions(n))


def row(n: int, reference: dict[int, int]) -> dict:
    walk = walk_delta(n)
    leaf = per_leaf_delta(n)
    if walk != leaf:
        raise SystemExit(f"n={n}: walk gives {walk}, per-leaf dim_mod4 gives {leaf}")
    routes = ["walk", "per_leaf"]
    if n in reference:
        if reference[n] != walk:
            raise SystemExit(f"n={n}: walk gives {walk}, perfbench/reference.json {reference[n]}")
        routes.append("perfbench_reference")
    return {"n": n, "a": enumeration.count_odd(n), "delta": walk, "routes": routes}


def main() -> None:
    reference = {int(n): d for n, d in
                 json.loads(REFERENCE.read_text())["leading_11_delta"].items()}
    rows = []
    for n in SIZES:
        rows.append(row(n, reference))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    header = {
        "provenance": (
            "delta = a1 - a3 for n whose binary form starts 11 with three or more "
            "ones, bit lengths 6 and 7. Written by tests/data/make_leading_11_delta.py; "
            "each row lists the routes that produced it. a = count_odd(n)."
        ),
        "routes": {
            "walk": "sum of 1 - 2 * parity over enumeration._odd_abaci(n), signs "
                    "carried from each core by the parent-sign step",
            "per_leaf": "sum of dim_mod4(Partition(p.parts)).sign over the leaves p of "
                        "enumerate_odd_partitions(n), each recomputed on its checked twin",
            "perfbench_reference": "equal to leading_11_delta in perfbench/reference.json",
        },
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()]
    body = ",\n  ".join(json.dumps(r) for r in rows)
    OUT.write_text("{\n" + ",\n".join(lines) + f',\n "rows": [\n  {body}\n ]\n}}\n')


if __name__ == "__main__":
    main()
