"""Regenerate tests/data/sweep_tallies.json, the oracle sweep's tallies to 80.

Usage, from the root of a dimlab checkout:

    python3 tests/data/make_sweep_tallies.py [OUT]

OUT defaults to tests/data/sweep_tallies.json.  The script runs the
brute-force sweep `enumeration._sweep(80)` once, over every partition
of every size up to the enumeration bound, and writes one row per n
from 1 to 80: the counts c1, c2 and c3 of partitions whose dimension is
1, 2 and 3 mod 4, and the counts plus and minus of self-conjugate
partitions whose dimension is 2 mod 4 with odd part 1 and 3 mod 4.
"sha256" is the digest of the rows as `rows_digest` encodes them, so an
edit of a row that leaves the digest shows.  The sweep shares only the
abacus with the formula routes, which tests/test_enumeration.py holds to
these rows.  It takes several seconds in CPython (6.4 s cold to 80, the
median of 10 fresh processes, 2-core Xeon, Python 3.11; BENCH_46.json);
writing the file to another path and comparing it byte for byte with the
committed one checks the table against a fresh sweep.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from dimlab import enumeration  # noqa: E402
from dimlab.partitions import ENUMERATION_LIMIT  # noqa: E402

OUT = HERE / "sweep_tallies.json"
FIELDS = ("c1", "c2", "c3", "plus", "minus")


def rows_digest(rows: list[dict]) -> str:
    """sha256 of the rows, each as its n and FIELDS, one comma-separated line per row."""
    text = "".join(",".join(str(row[key]) for key in ("n", *FIELDS)) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def main(out: Path) -> None:
    tallies = enumeration._sweep(ENUMERATION_LIMIT)
    rows = [{"n": n, **dict(zip(FIELDS, tallies[n]))} for n in range(1, ENUMERATION_LIMIT + 1)]
    header = {
        "provenance": (
            f"enumeration._sweep({ENUMERATION_LIMIT}) tallies per n, written by "
            "tests/data/make_sweep_tallies.py. c1, c2, c3: partitions of dimension 1, 2, 3 "
            "mod 4; plus, minus: self-conjugate partitions of dimension 2 mod 4 whose odd "
            "part is 1, 3 mod 4."
        ),
        "sha256": rows_digest(rows),
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()]
    body = ",\n  ".join(json.dumps(r) for r in rows)
    out.write_text("{\n" + ",\n".join(lines) + f',\n "rows": [\n  {body}\n ]\n}}\n')


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
