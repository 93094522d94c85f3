"""Command-line front end: tabulate counts, verify formulas, inspect structures.

Subcommands
    counts <n>            residue-class counts for one n (formula-first)
    verify --max-n N      formula-vs-oracle checks up to N, exit 1 on mismatch
    tower <partition>     render the 2-core tower and its row weights, |partition| <= 10000
    parents <partition> --r R   list hook-addition parents with sign data;
                          refused when |partition| + 2^R exceeds 80
    alt <n>               alternating-group counts for one n

Each subcommand builds its output as rows of named values, plus the
lines it prints as text and, where its JSON is shaped differently, the
JSON document; one emitter writes whichever --format asks for.  CSV
lines end in "\\n", --header prints the keys of the first row, and an
absent value is written as an empty field.

main parses argv with the parser of the command its first word names, built on first use.
Timing lives in the benchmark (python3 perfbench/run.py), not here.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 141
(128 + SIGPIPE) when the reader closes stdout early.

Each costly route has one limit, and passing it exits 2.  The oracle
bound B (default 40, set with verify's --oracle-bound) caps the
brute-force sweep over all p(n) partitions that verify replays the
formulas against, the alternating-group suite included.  The signed
odd-stream walk that counts and alt fall back to for delta, when n starts
"11" in binary with three or more ones, visits the odd cores below n's
top bit t and sums the signs of each core's t parents in closed form.
It is refused when n has more than 2^22 odd partitions
(enumeration.WALK_CEILING), 2^(sum of bit positions) of them.  A refusal
names an n past 64 bits by its bit length.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from typing import Callable, Iterable, NoReturn, Sequence

from . import alternating, enumeration
from .binary_arith import is_sparse
from .core_towers import TOWER_LIMIT, render_tower, row_weights, staircase_text, tower
from .enumeration import DEFAULT_ORACLE_BOUND
from .errors import SizeLimitError, quoted, size_text
from .parents import all_parents, sign_flip_parity, predict_parent_sign
from .partitions import Partition, _natural, dim_mod4


def _positive_int(text: str) -> int:
    try:
        value = _natural(text)
    except SizeLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {quoted(text)}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built on the first call that names it."""
    parser = argparse.ArgumentParser(prog=f"dimlab {name}")
    parser.add_argument("--format", choices=("csv", "json", "text"), default="text",
                        help="output encoding (default text)")
    parser.add_argument("--header", action="store_true",
                        help="with --format csv, print the schema header line first")
    if name in ("counts", "alt"):
        parser.add_argument("n", type=_positive_int)
    elif name == "verify":
        parser.add_argument("--max-n", type=_positive_int, required=True, metavar="N")
        parser.add_argument(
            "--oracle-bound", type=_positive_int, default=DEFAULT_ORACLE_BOUND, metavar="B",
            help="largest n for the brute-force sweep, its alternating suite included "
                 f"(default {DEFAULT_ORACLE_BOUND})",
        )
    elif name == "tower":
        parser.add_argument("partition", type=_partition_arg,
                            help=f"comma form, e.g. 6,5,4,2,1,1; refused past size {TOWER_LIMIT}")
    else:  # parents
        parser.add_argument("partition", type=_partition_arg, help="the core, comma form")
        parser.add_argument("--r", type=_positive_int, required=True, metavar="R",
                            help="hooks have length 2^R")
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


def _cmd_report(args: argparse.Namespace, report_of: Callable[[int], object]) -> int:
    # counts and alt: one report dataclass, its fields in every format, read
    # as they are: asdict would deep-copy every int
    report = report_of(args.n)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    _emit(args, [fields], (f"{key} = {value}" for key, value in fields.items()), fields)
    return 0


def _cmd_tower(args: argparse.Namespace) -> int:
    t = tower(args.partition)
    weights = row_weights(t)
    joined = ",".join(map(str, weights))
    doc = {
        "partition": str(args.partition),
        "rows": [list(map(staircase_text, row)) for row in t.heights],
        "weights": list(weights),
    }
    rows = [{"partition": str(args.partition), "weights": joined, "depth": t.depth}]
    _emit(args, rows, [*render_tower(t), "w = " + joined], doc)
    return 0


def _cmd_parents(args: argparse.Namespace) -> int:
    try:
        recs = all_parents(args.partition, args.r)
    except SizeLimitError:  # a ValueError too, but a size refusal, not a usage error
        raise
    except ValueError as exc:
        command_parser("parents").error(str(exc))
    rows, text = [], []
    core_sign = dim_mod4(args.partition).sign
    for rec in recs:
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
    # one walk sweeps 1..max_n, refused past the bound before it starts
    enumeration._sweep(1, max_n, bound)
    oracle = {n: enumeration.oracle_counts(n, bound) for n in range(1, max_n + 1)}

    for name, function, field in (("odd-count formula", "count_odd", "a"),
                                  ("residue-two recursion", "a2", "a2"),
                                  ("not-divisible-by-four count", "m4", "m4")):
        formula = getattr(enumeration, function)
        yield name, [f"n={n}: formula {formula(n)} oracle {getattr(rep, field)}"
                     for n, rep in oracle.items() if formula(n) != getattr(rep, field)]

    bad = []
    for n, rep in oracle.items():
        value, status = enumeration.delta(n)
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
        value, status = alternating.delta_circ(n)
        if value != rep.delta_circ:
            bad.append(f"n={n}: delta_circ {value} ({status}) oracle {rep.delta_circ}")
    yield "alternating closed forms", bad


def _cmd_verify(args: argparse.Namespace) -> int:
    bound = args.oracle_bound
    if args.max_n > bound:
        command_parser("verify").error(f"--max-n of {size_text(args.max_n)} is past the "
                                       f"oracle bound of {size_text(bound)}")
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


# each command's summary for -h and the function that runs it; counts and alt look their
# report up in its module at each call, so a rebinding there (the benchmark's tracer) is seen
COMMANDS = {
    "counts": ("residue-class counts for n",
               lambda args: _cmd_report(args, enumeration.formula_counts)),
    "verify": ("formula-vs-oracle checks", _cmd_verify),
    "tower": ("2-core tower of a partition", _cmd_tower),
    "parents": ("hook-addition parents of a core", _cmd_parents),
    "alt": ("alternating-group counts for n",
            lambda args: _cmd_report(args, alternating.formula_alt_counts)),
}


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:
            # the command's own parser refuses, so its usage line names the command
            return COMMANDS[argv[0]][1](command_parser(argv[0]).parse_args(argv[1:]))
        _top_level(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        if exc.code is not None:
            print(exc.code, file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _top_level(argv: list[str]) -> NoReturn:
    """Answer -h, or refuse a command line that does not start with a command."""
    parser = argparse.ArgumentParser(prog="dimlab", description=(
        "Partition counts by dimension residue mod 4, with verification tools. "
        "Every subcommand takes --format csv|json|text and --header."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in COMMANDS.items():
        sub.add_parser(name, help=summary)
    parser.parse_args(argv)
    # a command word after "--" or an option is not where a command goes
    parser.error(f"the command must come first, not {quoted(argv[0])}")


if __name__ == "__main__":
    raise SystemExit(main())
