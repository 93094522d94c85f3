"""Command-line front end: tabulate counts, verify formulas, inspect structures.

Subcommands
    counts <n>            residue-class counts for one n (formula-first)
    verify --max-n N      formula-vs-oracle checks up to N, exit 1 on mismatch
    tower <partition>     render the 2-core tower and its row weights
    parents <partition> --r R   list hook-addition parents with sign data;
                          refused when |partition| + 2^R exceeds 80
    alt <n>               alternating-group counts for one n

Each subcommand builds its output as rows of named values, plus the
lines it prints as text and, where its JSON is shaped differently, the
JSON document; one emitter writes whichever --format asks for.  CSV
lines end in "\\n", --header prints the keys of the first row, and an
absent value is written as an empty field.

The parser is built once per process and reused by every call of main.
Timing lives in the benchmark (python3 perfbench/run.py), not here.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 141
(128 + SIGPIPE) when the reader closes stdout early.

The oracle bound B (default 40) caps two routes by n: the brute-force
sweep over all p(n) partitions that verify replays the formulas
against, the alternating-group suite included, and the signed
odd-stream walk that counts and alt fall back to for delta when n
starts "11" in binary with three or more ones (it visits the 2^(sum of
bit positions) odd partitions of n).  Past B such an n is refused with
exit 2.  Only counts, verify and alt take --oracle-bound and read the
environment variable DIMLAB_ORACLE_BOUND, which overrides the default;
--oracle-bound overrides both.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from typing import Iterable, Sequence

from . import alternating, enumeration
from .binary_arith import is_sparse
from .core_towers import render_tower, row_weights, tower
from .enumeration import DEFAULT_ORACLE_BOUND
from .errors import SizeLimitError
from .parents import all_parents, sign_flip_parity, predict_parent_sign
from .partitions import Partition, dim_mod4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _oracle_bound(args: argparse.Namespace) -> int:
    """--oracle-bound, else DIMLAB_ORACLE_BOUND, else the default."""
    if args.oracle_bound is not None:
        return args.oracle_bound
    raw = os.environ.get("DIMLAB_ORACLE_BOUND")
    if raw is None:
        return DEFAULT_ORACLE_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"DIMLAB_ORACLE_BOUND must be an integer, got {raw!r}")
    if value < 1:
        raise SystemExit(f"DIMLAB_ORACLE_BOUND must be positive, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="Partition counts by dimension residue mod 4, with verification tools. "
                    "Every subcommand takes --format csv|json|text and --header.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("csv", "json", "text"), default="text",
        help="output encoding (default text)",
    )
    shared.add_argument(
        "--header", action="store_true",
        help="with --format csv, print the schema header line first",
    )
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument(
        "--oracle-bound", type=_positive_int, default=None, metavar="B",
        help="largest n for the brute-force sweep of verify, its alternating "
             "suite included, and the odd-stream delta fallback of counts and alt "
             "(default from DIMLAB_ORACLE_BOUND, else 40)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *extra):
        cmd = sub.add_parser(name, parents=[shared, *extra], help=summary)
        cmd.set_defaults(run=run)
        return cmd

    p_counts = command("counts", _cmd_counts, "residue-class counts for n", bounded)
    p_counts.add_argument("n", type=_positive_int)

    p_verify = command("verify", _cmd_verify, "formula-vs-oracle checks", bounded)
    p_verify.add_argument("--max-n", type=_positive_int, required=True, metavar="N")

    p_tower = command("tower", _cmd_tower, "2-core tower of a partition")
    p_tower.add_argument("partition", type=_partition_arg, help="comma form, e.g. 6,5,4,2,1,1")

    p_parents = command("parents", _cmd_parents, "hook-addition parents of a core")
    p_parents.add_argument("partition", type=_partition_arg, help="the core, comma form")
    p_parents.add_argument("--r", type=_positive_int, required=True, metavar="R",
                           help="hooks have length 2^R")

    p_alt = command("alt", _cmd_alt, "alternating-group counts for n", bounded)
    p_alt.add_argument("n", type=_positive_int)

    return parser


def _emit(args: argparse.Namespace, rows: list[dict], text: Iterable[str],
          doc: object = None) -> None:
    """Write rows as CSV, doc (rows when None) as JSON, or the text lines."""
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if args.header:
            writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    elif args.format == "json":
        print(json.dumps(rows if doc is None else doc))
    else:
        for line in text:
            print(line)


def _cmd_counts(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    fields = dataclasses.asdict(enumeration.formula_counts(args.n, _oracle_bound(args)))
    _emit(args, [fields], (f"{key} = {value}" for key, value in fields.items()), fields)
    return 0


def _cmd_alt(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    fields = dataclasses.asdict(alternating.formula_alt_counts(args.n, _oracle_bound(args)))
    _emit(args, [fields], (f"{key} = {value}" for key, value in fields.items()), fields)
    return 0


def _cmd_tower(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    t = tower(args.partition)
    weights = row_weights(t)
    joined = ",".join(map(str, weights))
    doc = {
        "partition": str(args.partition),
        "rows": [[str(node) for node in row] for row in t.rows],
        "weights": list(weights),
    }
    rows = [{"partition": str(args.partition), "weights": joined, "depth": t.depth}]
    _emit(args, rows, [*render_tower(t), "w = " + joined], doc)
    return 0


def _cmd_parents(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    core = args.partition
    if core.size >= 1 << args.r:
        parser.error(f"core size {core.size} must be below 2^{args.r} = {1 << args.r}")
    rows, text = [], []
    core_sign = dim_mod4(core).sign
    for rec in all_parents(core, args.r):
        eta = sign_flip_parity(rec)
        actual = dim_mod4(rec.parent).sign
        predicted = predict_parent_sign(rec, core_sign) if rec.parent.size > 3 else None
        rows.append({
            "parent": str(rec.parent),
            "kind": rec.kind,
            "param": rec.param,
            "affected": rec.affected,
            "eta": eta,
            "predicted": predicted,
            "actual": actual,
        })
        pred = "?" if predicted is None else f"{predicted:+d}"
        text.append(f"kind {rec.kind}  param {rec.param:>3}  affected {rec.affected:>3}  "
                    f"eta {eta}  predicted {pred}  actual {actual:+d}  parent {rec.parent}")
    _emit(args, rows, text)
    return 0


def _verify_suites(max_n: int, bound: int):
    """Yield (suite name, list of mismatch descriptions) pairs."""
    oracle = {n: enumeration.oracle_counts(n, bound) for n in range(1, max_n + 1)}

    bad = [f"n={n}: formula {enumeration.count_odd(n)} oracle {rep.a}"
           for n, rep in oracle.items() if enumeration.count_odd(n) != rep.a]
    yield "odd-count formula", bad

    bad = [f"n={n}: formula {enumeration.a2(n)} oracle {rep.a2}"
           for n, rep in oracle.items() if enumeration.a2(n) != rep.a2]
    yield "residue-two recursion", bad

    bad = [f"n={n}: formula {enumeration.m4(n)} oracle {rep.m4}"
           for n, rep in oracle.items() if enumeration.m4(n) != rep.m4]
    yield "not-divisible-by-four count", bad

    bad = []
    for n, rep in oracle.items():
        value, status = enumeration.delta(n, bound)
        if value != rep.delta:
            bad.append(f"n={n}: delta {value} ({status}) oracle {rep.delta}")
    yield "signed count (formula or odd-stream fallback)", bad

    bad = []
    for n, rep in oracle.items():
        if is_sparse(n) and enumeration.delta_sparse(n) != rep.delta:
            bad.append(f"n={n}: closed form {enumeration.delta_sparse(n)} oracle {rep.delta}")
    yield "sparse closed form", bad

    bad = []
    for n in range(4, max_n + 1):
        r = n.bit_length() - 1
        m = n - (1 << r)
        if 0 < m < 1 << (r - 1):
            want = 0 if n % 2 == 0 else 4 * oracle[m].delta
            if oracle[n].delta != want:
                bad.append(f"n={n}: oracle {oracle[n].delta} recursion {want}")
    yield "main recursion", bad

    known = {3: (2, 0), 6: (8, 0), 12: (16, 16), 24: (64, 64)}
    bad = [f"n={n}: oracle ({oracle[n].a1},{oracle[n].a3}) expected {want}"
           for n, want in known.items() if n <= max_n and (oracle[n].a1, oracle[n].a3) != want]
    yield "leading-11 values", bad

    bad = []
    for n in range(3, max_n + 1):
        rep = alternating.alternating_oracle(n, bound)
        if alternating.hat_m2(n) != rep.m2_hat:
            bad.append(f"n={n}: hat_m2 {alternating.hat_m2(n)} oracle {rep.m2_hat}")
        if alternating.a_circ(n) != rep.a_circ:
            bad.append(f"n={n}: a_circ {alternating.a_circ(n)} oracle {rep.a_circ}")
        value, status = alternating.delta_circ(n, bound)
        if value != rep.delta_circ:
            bad.append(f"n={n}: delta_circ {value} ({status}) oracle {rep.delta_circ}")
    yield "alternating closed forms", bad


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    bound = _oracle_bound(args)
    if args.max_n > bound:
        parser.error(f"--max-n {args.max_n} exceeds the oracle bound {bound}")
    suites = [{"name": name, "ok": not bad, "mismatches": bad}
              for name, bad in _verify_suites(args.max_n, bound)]
    failures = sum(len(suite["mismatches"]) for suite in suites)
    rows = [{"suite": suite["name"], "ok": suite["ok"], "mismatches": len(suite["mismatches"])}
            for suite in suites]
    text = []
    for suite in suites:
        text.append(f"{'ok' if suite['ok'] else 'FAIL'} {suite['name']}")
        text += (f"  {line}" for line in suite["mismatches"])
    text.append(f"verify: {'FAIL' if failures else 'ok'} up to n={args.max_n} "
                f"({failures} mismatches)")
    _emit(args, rows, text, {"max_n": args.max_n, "mismatches": failures, "suites": suites})
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`dimlab verify | head`).  Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # report what a tool killed by SIGPIPE reports.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    return code


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, parser)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        if exc.code is not None:
            print(exc.code, file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
