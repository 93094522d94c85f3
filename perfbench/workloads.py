"""The four benchmark workloads and the checks on their answers.

Each workload is built at set-up from the dimlab modules, the reference
data and a seed.  `run_pass` is the timed part and returns raw outputs;
`check` inspects one pass's outputs and `validate` makes the deeper
checks once per run, both outside the timed region.  Every check returns
a list of problems: any problem fails the run.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path


def odd_count(n: int) -> int:
    """Partitions of n with odd dimension: 2 to the sum of n's bit positions."""
    return 1 << sum(i for i in range(n.bit_length()) if n >> i & 1)


class Reference:
    """Answers computed independently of the code under test (reference.json)."""

    def __init__(self, data: dict):
        self.sym = {row[0]: tuple(row[1:4]) for row in data["sym"]}
        self.partitions = {row[0]: row[4] for row in data["sym"]}
        self.alt = {row[0]: tuple(row[1:]) for row in data["alt"]}
        self.leading_11 = {int(n): d for n, d in data["leading_11_delta"].items()}

    @classmethod
    def load(cls, path: Path) -> "Reference":
        return cls(json.loads(path.read_text()))

    def delta(self, n: int) -> int | None:
        if n in self.sym:
            a1, _, a3 = self.sym[n]
            return a1 - a3
        return self.leading_11.get(n)


@dataclass
class PassResult:
    outputs: list
    attempted: int
    failed: int
    items: int  # answered items, the numerator of items_per_s


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """Run `dimlab.cli.main(argv)` in-process; exit code None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, reported by type
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


class OracleSweep:
    """`dimlab verify --max-n 28`: the brute force whose cost grows with p(n)."""

    name = "oracle_sweep"

    def __init__(self, dl, ref: Reference, seed: int, max_n: int = 28):
        self.dl, self.ref, self.max_n = dl, ref, max_n
        self.argv = ["verify", "--max-n", str(max_n)]
        self.items = sum(ref.partitions[n] for n in range(1, max_n + 1))
        self.largest = max_n

    def run_pass(self) -> PassResult:
        code, out, err = call_cli(self.dl.cli, self.argv)
        return PassResult([(code, out, err)], 1, int(code != 0), self.items if code == 0 else 0)

    def check(self, outputs: list) -> list[str]:
        (code, out, err), = outputs
        want = f"verify: ok up to n={self.max_n} (0 mismatches)"
        lines = out.splitlines()
        if code != 0 or not lines or lines[-1] != want:
            return [f"verify exited {code}: {(lines or [err])[-1]!r}"]
        return []

    def validate(self) -> list[str]:
        """Oracle tallies equal the reference (cheap: the sweeps are cached)."""
        enum, alt = self.dl.enumeration, self.dl.alternating
        bad = []
        for n in range(1, self.max_n + 1):
            rep = enum.oracle_counts(n)
            if (rep.a1, rep.a2, rep.a3) != self.ref.sym[n]:
                bad.append(f"oracle n={n}: {(rep.a1, rep.a2, rep.a3)} != {self.ref.sym[n]}")
        for n in range(3, min(self.max_n, alt.DEFAULT_ALT_ORACLE_BOUND) + 1):
            rep = alt.alternating_oracle(n)
            got = (rep.a1_circ, rep.a3_circ, rep.m2_hat)
            if got != self.ref.alt[n]:
                bad.append(f"alternating oracle n={n}: {got} != {self.ref.alt[n]}")
        return bad


class OddStream:
    """Signed sum of dim_mod4 over enumerate_odd_partitions(n), n past the oracle bound.

    n = 41..53 covers both leading binary heads ("10" and "11"); 57 is the
    first n of the leading-"11" table with a nonzero delta.
    """

    name = "odd_stream"
    SIZES = (*range(41, 54), 57)

    def __init__(self, dl, ref: Reference, seed: int, sizes=SIZES):
        self.dl, self.ref = dl, ref
        self.order = list(sizes)
        random.Random(seed).shuffle(self.order)
        self.largest = max(self.order)

    def run_pass(self) -> PassResult:
        enum, part = self.dl.enumeration, self.dl.partitions
        outputs, failed, items = [], 0, 0
        for n in self.order:
            total = count = 0
            try:
                for p in enum.enumerate_odd_partitions(n):
                    total += part.dim_mod4(p).sign
                    count += 1
            except Exception as exc:  # counted as a failed call, reported by check
                outputs.append((n, None, None, f"{type(exc).__name__}: {exc}"))
                failed += 1
                continue
            outputs.append((n, total, count, None))
            items += count
        return PassResult(outputs, len(self.order), failed, items)

    def check(self, outputs: list) -> list[str]:
        bad = []
        for n, total, count, error in outputs:
            if error is not None:
                bad.append(f"odd stream n={n} raised {error}")
            elif count != odd_count(n):
                bad.append(f"odd stream n={n}: {count} partitions, want {odd_count(n)}")
            elif total != self.ref.delta(n):
                bad.append(f"odd stream n={n}: signed sum {total}, reference {self.ref.delta(n)}")
        return bad

    def validate(self) -> list[str]:
        """The stream yields distinct partitions of n, each of odd exact dimension."""
        enum, part = self.dl.enumeration, self.dl.partitions
        bad = []
        for n in sorted(self.order):
            shapes = [p.parts for p in enum.enumerate_odd_partitions(n)]
            if len(set(shapes)) != len(shapes):
                bad.append(f"odd stream n={n} repeats a partition")
            for parts in shapes:
                p = part.Partition(parts)
                if sum(parts) != n or part.dim_exact(p, limit=n) % 2 == 0:
                    bad.append(f"odd stream n={n} yields {parts}, not an odd partition of {n}")
                    break
        return bad


class TowerSweep:
    """tower, classify_by_tower and tower_to_partition on every partition of 20."""

    name = "tower_sweep"

    def __init__(self, dl, ref: Reference, seed: int, n: int = 20):
        self.dl, self.ref, self.n = dl, ref, n
        self.parts = list(dl.partitions.enumerate_partitions(n))
        random.Random(seed).shuffle(self.parts)
        self.largest = n

    def run_pass(self) -> PassResult:
        ct = self.dl.core_towers
        outputs, failed = [], 0
        for p in self.parts:
            try:
                t = ct.tower(p)
                outputs.append((p, t, ct.classify_by_tower(p), ct.tower_to_partition(t)))
            except Exception as exc:  # counted as a failed call, reported by check
                outputs.append((p, None, f"{type(exc).__name__}: {exc}", None))
                failed += 1
        return PassResult(outputs, len(self.parts), failed, len(self.parts) - failed)

    def check(self, outputs: list) -> list[str]:
        bad = []
        tally = {"odd": 0, "two_mod_4": 0, "other": 0}
        for p, t, cls, back in outputs:
            if t is None:
                bad.append(f"tower of {p.parts} raised {cls}")
                continue
            tally[cls] = tally.get(cls, 0) + 1
            if back is None or back.parts != p.parts:
                bad.append(f"tower round trip of {p.parts} gave {back!r}")
            weight = sum((1 << k) * sum(sum(node.parts) for node in row)
                         for k, row in enumerate(t.rows))
            if weight != self.n:
                bad.append(f"tower of {p.parts} has weighted row sum {weight}")
        a1, a2, a3 = self.ref.sym[self.n]
        if not bad and (tally["odd"], tally["two_mod_4"]) != (a1 + a3, a2):
            bad.append(f"tower classes {tally}, reference a={a1 + a3} a2={a2}")
        return bad[:10]

    def validate(self) -> list[str]:
        return []


class CountsLadder:
    """`dimlab counts n` and `dimlab alt n` in JSON over a ladder of n."""

    name = "counts_ladder"
    FIXED = [*range(1, 41), 87381, 10**6, 2**1000 + 1]
    # Seeded rungs: (shortest, longest bit length, leading binary digits, low
    # bit).  An even "10..." n has an exact delta; an odd "11..." n has three
    # or more ones and no formula.  The seed picks the digits, not the route.
    BANDS = ((65, 256, 0b10, 0), (257, 1024, 0b11, 1))

    def __init__(self, dl, ref: Reference, seed: int, rungs: list[int] | None = None):
        self.dl, self.ref = dl, ref
        if rungs is None:
            rng = random.Random(seed)
            rungs = list(self.FIXED)
            for lo, hi, lead, low in self.BANDS:
                bits = rng.randint(lo, hi)
                middle = rng.getrandbits(bits - 3) << 1
                rungs.append(lead << (bits - 2) | middle | low)
        self.calls = [(cmd, n, [cmd, str(n), "--format", "json"])
                      for n in rungs for cmd in ("counts", "alt")]
        self.largest = 40

    def run_pass(self) -> PassResult:
        cli = self.dl.cli
        outputs = [(cmd, n, *call_cli(cli, argv)) for cmd, n, argv in self.calls]
        failed = sum(1 for out in outputs if out[2] != 0)
        return PassResult(outputs, len(outputs), failed, len(outputs) - failed)

    def check(self, outputs: list) -> list[str]:
        bad = []
        for cmd, n, code, out, err in outputs:
            if code == 2 and err.startswith("error: "):
                continue  # a refusal: counted in failed, not a wrong answer
            if code != 0:
                bad.append(f"{cmd} {n} exited {code}: {err.strip()[:200]}")
                continue
            check = self._check_counts if cmd == "counts" else self._check_alt
            try:
                bad += [f"{cmd} {n}: {msg}" for msg in check(n, json.loads(out))]
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"{cmd} {n}: malformed answer {out.strip()[:200]!r} ({exc!r})")
        return bad

    def _check_counts(self, n: int, r: dict) -> list[str]:
        enum = self.dl.enumeration
        bad = []
        if r["n"] != n or r["a1"] + r["a3"] != r["a"] or r["a1"] - r["a3"] != r["delta"]:
            bad.append(f"inconsistent report {r}")
        if r["a"] != odd_count(n) or (r["a"] + r["delta"]) % 2 or r["m4"] != r["a"] + r["a2"]:
            bad.append(f"report breaks a = odd count, a + delta even or m4 = a + a2: {r}")
        if n in self.ref.sym:
            if (r["a1"], r["a2"], r["a3"]) != self.ref.sym[n]:
                bad.append(f"(a1, a2, a3) = {(r['a1'], r['a2'], r['a3'])}, reference {self.ref.sym[n]}")
        elif n & (n >> 1) == 0:
            if r["delta"] != enum.delta_sparse(n) or r["a2"] != enum.a2_sparse(n):
                bad.append(f"sparse closed forms disagree with {r}")
        return bad

    def _check_alt(self, n: int, r: dict) -> list[str]:
        bad = []
        if r["n"] != n or r["a1_circ"] + r["a3_circ"] != r["a_circ"]:
            bad.append(f"inconsistent report {r}")
        if (r["a_circ"] + r["delta_circ"]) % 2 or r["a1_circ"] - r["a3_circ"] != r["delta_circ"]:
            bad.append(f"a_circ + delta_circ is odd or delta_circ != a1 - a3: {r}")
        if n in self.ref.alt:
            got = (r["a1_circ"], r["a3_circ"], r["m2_hat"])
            if got != self.ref.alt[n]:
                bad.append(f"(a1_circ, a3_circ, m2_hat) = {got}, reference {self.ref.alt[n]}")
        return bad

    def validate(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (OracleSweep, OddStream, TowerSweep, CountsLadder)}
