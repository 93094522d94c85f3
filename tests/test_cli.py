import argparse
import collections
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import dimlab
from dimlab import alternating, cli, enumeration
from dimlab.alternating import AltReport
from dimlab.binary_arith import position_sum
from dimlab.cli import command_parser, main
from dimlab.core_towers import TOWER_LIMIT, tower
from dimlab.enumeration import CountReport
from dimlab.errors import SizeLimitError
from dimlab.partitions import Partition, dim_mod4, enumerate_partitions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_csv_row(capsys):
    code, out, _ = run(capsys, "counts", "6", "--format", "csv")
    assert code == 0
    assert out == "6,8,8,2,0,8,10,formula\n"
    assert run(capsys, "counts", "11", "--format", "csv")[1] == "11,16,12,20,4,8,36,formula\n"


def test_counts_csv_header(capsys):
    code, out, _ = run(capsys, "counts", "6", "--format", "csv", "--header")
    assert code == 0
    assert out.splitlines() == [
        "n,a,a1,a2,a3,delta,m4,source",
        "6,8,8,2,0,8,10,formula",
    ]


def test_counts_text(capsys):
    code, out, _ = run(capsys, "counts", "6")
    assert code == 0
    lines = out.splitlines()
    assert "n = 6" in lines
    assert "a1 = 8" in lines
    assert "source = formula" in lines


def test_counts_json_mixed_source(capsys):
    code, out, _ = run(capsys, "counts", "13", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 32
    assert data["delta"] == 0
    assert data["source"] == "mixed"


def test_counts_rejects_bad_n(capsys):
    assert run(capsys, "counts", "0")[0] == 2
    assert run(capsys, "counts", "six")[0] == 2


@pytest.mark.parametrize("text", ["+6", "1_0", "\u0666", " +6 "])
def test_numbers_are_ascii_digits_only(capsys, text):
    # int() would take a sign, an underscore or an Arabic-Indic six
    code, out, err = run(capsys, "counts", text)
    assert (code, out) == (2, "")
    assert "not an integer" in err
    assert run(capsys, "parents", "-", "--r", text)[0] == 2
    assert run(capsys, "verify", "--max-n", text)[0] == 2
    assert run(capsys, "counts", " 6 ")[0] == 0


@pytest.mark.parametrize("text", ["1_0,+2", "3,\u0661", "+3", "3,-1", "3,1_", "²"])
def test_partition_text_is_ascii_digits_only(capsys, text):
    code, out, err = run(capsys, "tower", text)
    assert (code, out) == (2, "")
    assert "bad partition text" in err


def test_a_number_past_the_digit_limit_names_it(capsys):
    # Python refuses to convert more than sys.get_int_max_str_digits() digits
    limit = sys.get_int_max_str_digits()
    text = "7" * 5001
    code, out, err = run(capsys, "counts", text)
    assert (code, out) == (2, "")
    assert f"a 5001-digit number is past Python's int conversion limit of {limit} digits" in err
    assert len(err) < 300
    with pytest.raises(ValueError, match=f"5001-digit number .* limit of {limit} digits") as exc:
        Partition.from_text("3," + text)
    assert len(str(exc.value)) < 300


def test_long_bad_text_is_cut_in_the_message(capsys):
    code, _, err = run(capsys, "counts", "x" * 5000)
    assert code == 2
    assert "not an integer: 'xxxx" in err and "(5000 characters)" in err
    assert len(err) < 300


def test_counts_past_oracle_bound(capsys):
    # 55 needs the walk for delta, which the sweep's limit does not bound
    code, out, err = run(capsys, "counts", "55", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["source"] == "mixed"


@pytest.mark.parametrize("command, key, value", [("counts", "delta", 32),
                                                 ("alt", "delta_circ", 16)])
def test_the_walk_answers_past_the_oracle_bound_by_default(capsys, command, key, value):
    # 57 = 111001: the first leading-"11" n with a nonzero delta, walked over 2^14 leaves
    code, out, err = run(capsys, command, "57", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["source"], data[key]) == ("mixed", value)


@pytest.mark.parametrize("n, bits", [(2**1000 + 1, 1001), ((3 << 1022) | 1, 1024)],
                         ids=["2^1000+1", "leading-11"])
def test_refusals_name_a_big_n_by_its_bit_length(capsys, n, bits):
    # a 2^1000 + 1 passes the odd count's 64-bit line; a leading-"11" n of
    # 1024 bits has no closed form and is past the walk's ceiling
    code, out, err = run(capsys, "counts", str(n))
    assert (code, out) == (2, "")
    assert f"a {bits}-bit number" in err
    assert str(n) not in err and len(err) < 200
    code, out, err = run(capsys, "verify", "--max-n", str(n))
    assert (code, out) == (2, "")
    assert err == (f"error: the oracle sweep of all partitions of a {bits}-bit number "
                   "exceeds the enumeration bound 80\n")


def test_walk_refusal_names_its_cost(capsys):
    # 222 = 11011110 in binary: the walk would visit 2^(1+2+3+4+6+7) leaves
    err = run(capsys, "counts", "222")[2]
    assert err == ("error: delta of 222 has no closed form (leading 11 with extra ones), "
                   "and its walk over 2^23 odd partitions is past the walk's ceiling of 2^22\n")


@pytest.mark.parametrize("command", ["counts", "alt"])
def test_a_walk_past_64_bits_is_refused_whatever_the_bound(capsys, command):
    # 3 * 10^19 starts "11" in binary with 23 ones: its walk would visit 2^886
    # leaves, and only the walk's ceiling stands in front of it
    n = 3 * 10**19
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: delta of a 65-bit number has no closed form (leading 11 with extra "
                   "ones), and its walk over 2^886 odd partitions is past the walk's ceiling "
                   "of 2^22\n")


@pytest.mark.parametrize("n, exponent", [(2047, 55), (222, 23)])
def test_a_walk_past_the_ceiling_is_refused_under_its_own_bound(capsys, n, exponent):
    # 2047 = 11111111111 once ran for ever; 222 = 11011110 is one past the ceiling
    enumeration.clear_caches()
    start = time.perf_counter()
    code, out, err = run(capsys, "counts", str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f"its walk over 2^{exponent} odd partitions is past the walk's "
                        f"ceiling of 2^{enumeration.WALK_CEILING}\n")


def test_the_walk_ceiling_admits_its_own_exponent(monkeypatch):
    # 55 = 110111 walks 2^12 leaves: a ceiling of 12 lets it through, 11 does not
    for ceiling, answers in ((12, True), (11, False)):
        monkeypatch.setattr(enumeration, "WALK_CEILING", ceiling)
        enumeration.clear_caches()
        try:
            assert enumeration.delta(55) == (0, enumeration.FALLBACK)
        except SizeLimitError as exc:
            assert not answers and "the walk's ceiling of 2^11" in str(exc)
        else:
            assert answers
    enumeration.clear_caches()


# 2001 bits holding 1001 ones, 603 digits: the recursions of delta and a2 once
# took one stack frame per leading "10" and per binary one, past Python's limit
LONG_SPARSE = sum(4**k for k in range(1001))


@pytest.mark.parametrize("command", ["counts", "alt"])
def test_a_long_sparse_n_is_refused_not_crashed(capsys, command):
    enumeration.clear_caches()  # no cached rest may shorten the descent
    code, out, err = run(capsys, command, str(LONG_SPARSE))
    assert (code, out) == (2, "")
    assert err == ("error: odd-partition count of a 2001-bit number needs 2^1001000, "
                   "past the 64-bit line\n")


def test_a_long_sparse_n_has_an_exact_delta_and_a2_and_a_refused_m4():
    enumeration.clear_caches()
    assert enumeration.delta(LONG_SPARSE) == (enumeration.delta_sparse(LONG_SPARSE),
                                              enumeration.EXACT)
    # a2 of an odd sparse n is that of n - 1, whose a2 is a(n - 1)(n - 1 - 2 ones)/8
    even = LONG_SPARSE - 1
    assert enumeration.a2(LONG_SPARSE) == (1 << position_sum(even)) * (even - 2000) >> 3
    with pytest.raises(SizeLimitError, match="past the 64-bit line"):
        enumeration.m4(LONG_SPARSE)


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("ok ")) == 8
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "verify: ok up to n=10 (0 mismatches)"


def test_verify_sweeps_its_whole_range_in_one_walk(capsys, monkeypatch):
    walks = []
    shapes = collections.Counter()
    walk = enumeration._classified

    def weighed(items):
        for k, x, v, par, weight in items:
            shapes[k] += weight
            yield k, x, v, par, weight

    def counted(lo, hi):
        walks.append((lo, hi))
        return weighed(walk(lo, hi))

    monkeypatch.setattr(enumeration, "_classified", counted)
    enumeration.clear_caches()
    code, out, _ = run(capsys, "verify", "--max-n", "20")
    assert code == 0 and out.endswith("verify: ok up to n=20 (0 mismatches)\n")
    assert walks == [(1, 20)]
    # the one walk's weights count every partition of 1..20 that the tally
    # reads, those of v2 <= 1
    assert shapes == {n: sum(dim_mod4(p).v2 <= 1 for p in enumerate_partitions(n))
                      for n in range(1, 21)}
    # a range past the enumeration limit is refused before any walk
    enumeration.clear_caches()
    with pytest.raises(SizeLimitError, match="exceeds the enumeration bound 80$"):
        enumeration._sweep(1, 81)
    assert walks == [(1, 20)]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["max_n"], data["mismatches"]) == (10, 0)
    assert len(data["suites"]) == 8
    assert data["suites"][0] == {"name": "odd-count formula", "ok": True, "mismatches": []}


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--format", "csv", "--header")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "ok", "mismatches"]
    assert rows[1] == ["odd-count formula", "True", "0"]
    assert len(rows) == 9
    _, plain, _ = run(capsys, "verify", "--max-n", "10", "--format", "csv")
    assert plain.splitlines() == out.splitlines()[1:]


def test_verify_reports_mismatches_in_every_format(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "count_odd", lambda n: 0)
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert out.splitlines()[:4] == [
        "FAIL odd-count formula",
        "  n=1: formula 0 oracle 1",
        "  n=2: formula 0 oracle 2",
        "  n=3: formula 0 oracle 2",
    ]
    text_last = out.splitlines()[-1]
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert text_last == f"verify: FAIL up to n=3 ({data['mismatches']} mismatches)"
    assert data["suites"][0]["ok"] is False
    assert data["suites"][0]["mismatches"][0] == "n=1: formula 0 oracle 1"
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 1
    assert rows[0] == ["odd-count formula", "False", "3"]
    assert sum(int(row[2]) for row in rows) == data["mismatches"]


def test_verify_runs_the_alternating_suite_up_to_max_n(capsys, monkeypatch):
    right = alternating.hat_m2
    monkeypatch.setattr(alternating, "hat_m2", lambda n: right(n) + (n == 37))
    code, out, _ = run(capsys, "verify", "--max-n", "37")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL alternating closed forms"]
    at = lines.index(failed[0])
    assert lines[at + 1].startswith("  n=37: hat_m2 1 oracle 0")


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first write, as with `dimlab verify | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dimlab.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dimlab.cli", "verify", "--max-n", "12"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_a_cold_counts_call_loads_no_dataclasses():
    # the reports are NamedTuples: a fresh process that imports the CLI and
    # answers counts 6 loads neither dataclasses nor what it imports
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dimlab.__file__)))
    code = ("import sys\nfrom dimlab.cli import main\nmain(['counts', '6'])\n"
            "print(*sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n = 6\na = 8\n")
    assert proc.stderr == "\n"


def test_verify_needs_bound(capsys):
    # the sweep's one limit refuses, as the size refusals of counts do
    code, out, err = run(capsys, "verify", "--max-n", "81")
    assert (code, out) == (2, "")
    assert err == ("error: the oracle sweep of all partitions of 81 exceeds the "
                   "enumeration bound 80\n")


def test_verify_answers_past_40_with_no_flag(capsys):
    # the sweep's rows for 41..48 are checked against perfbench/reference.json
    # in test_enumeration.py
    code, out, err = run(capsys, "verify", "--max-n", "48")
    assert (code, err) == (0, "")
    assert out.endswith("verify: ok up to n=48 (0 mismatches)\n")


@pytest.mark.parametrize("argv", [["verify", "--max-n", "0"], ["parents", "3", "--r", "1"],
                                  ["counts", "6", "--oracle-bound", "5"], ["alt", "6", "--bogus"],
                                  ["verify", "--max-n", "5", "--bogus"]],
                         ids=["verify", "parents", "counts-unknown-flag", "alt-unknown-flag",
                              "verify-unknown-flag"])
def test_command_refusals_name_their_command(capsys, argv):
    # a refusal the command makes after parsing, or of an argument it does not
    # take, shows that command's usage
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: dimlab {argv[0]} ")
    assert f"dimlab {argv[0]}: error: " in err


def test_verify_past_the_enumeration_limit_exits_promptly(capsys):
    # the largest sweep runs first, so the refusal comes before any sweep
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--max-n", "81")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "exceeds the enumeration bound 80" in err


def test_tower_text(capsys):
    code, out, _ = run(capsys, "tower", "6,5,4,2,1,1")
    assert code == 0
    assert out.splitlines() == [
        "2,1",
        "- | -",
        "1 | - | 1 | -",
        "- | - | - | - | - | - | 1 | -",
        "w = 3,0,2,1",
    ]


def test_tower_csv_quotes_commas(capsys):
    code, out, _ = run(capsys, "tower", "6,5,4,2,1,1", "--format", "csv", "--header")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [
        ["partition", "weights", "depth"],
        ["6,5,4,2,1,1", "3,0,2,1", "4"],
    ]


def test_tower_csv_formats_no_staircase(capsys, monkeypatch):
    # csv prints the partition, weights and depth alone; the staircase cells are
    # formatted only for text and json, which print them
    calls = []
    real = cli.staircase_text
    monkeypatch.setattr(cli, "staircase_text", lambda h: calls.append(h) or real(h))
    for header in ((), ("--header",)):
        code, out, _ = run(capsys, "tower", "10000", "--format", "csv", *header)
        assert code == 0 and out.endswith("10000,\"0,0,0,0,1,0,0,0,1,1,1,0,0,1\",14\n")
    assert calls == []
    for fmt in ("text", "json"):
        assert run(capsys, "tower", "6,5,4,2,1,1", "--format", fmt)[0] == 0
        assert len(calls) == 15, fmt
        calls.clear()


def test_tower_renderings_match_the_staircase_view(capsys):
    # the CLI renders int heights; the reference reads str() of the staircases that
    # t.rows builds and parts_of decodes, so each route checks the other
    for n in range(14):
        for p in enumerate_partitions(n):
            staircases = tower(p).rows
            rows = [[str(node) for node in row] for row in staircases]
            weights = [sum(node.size for node in row) for row in staircases]
            joined = ",".join(map(str, weights))
            csv_out = io.StringIO()
            csv.writer(csv_out, lineterminator="\n").writerow([p, joined, len(rows)])
            want = {
                "text": "".join(f"{line}\n" for line in [*map(" | ".join, rows), "w = " + joined]),
                "json": json.dumps({"partition": str(p), "rows": rows, "weights": weights}) + "\n",
                "csv": csv_out.getvalue(),
            }
            for fmt, out in want.items():
                assert run(capsys, "tower", str(p), "--format", fmt)[:2] == (0, out), (p, fmt)


@pytest.mark.parametrize("text", [str(TOWER_LIMIT), ",".join(["1"] * TOWER_LIMIT)],
                         ids=["row", "column"])
def test_tower_builds_up_to_its_bound(capsys, text):
    code, out, err = run(capsys, "tower", text, "--format", "csv")
    assert (code, err) == (0, "")
    weights = [int(w) for w in next(csv.reader(io.StringIO(out)))[1].split(",")]
    assert sum(w << k for k, w in enumerate(weights)) == TOWER_LIMIT


@pytest.mark.parametrize("text", [str(TOWER_LIMIT + 1), ",".join(["1"] * (TOWER_LIMIT + 1)),
                                  str(10**20)], ids=["row", "column", "huge"])
def test_tower_refuses_past_its_bound_before_building(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "tower", text)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: |p| = ") and f"TOWER_LIMIT = {TOWER_LIMIT}" in err


def test_parents_text(capsys):
    code, out, _ = run(capsys, "parents", "1", "--r", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("eta 0" in line for line in lines)
    assert all("predicted +1  actual +1" in line for line in lines)
    tails = [line.split("parent ")[1] for line in lines]
    assert tails == ["5", "3,2", "2,2,1", "1,1,1,1,1"]


def test_parents_core_too_large(capsys):
    code, _, err = run(capsys, "parents", "2,2", "--r", "2")
    assert code == 2
    assert "core size" in err


def test_parents_refuses_huge_r_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "parents", "-", "--r", "40")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "80" in err


def test_parents_refuses_a_huge_r_without_building_two_to_the_r(capsys):
    command_parser("parents")  # built on first use; not part of the refusal
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "parents", "1", "--r", str(10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: parents of size 1 + 2^100000000 exceed the enumeration bound 80\n"
    assert peak < 1 << 20


def test_parents_lists_all_parents_below_the_bound(capsys):
    code, out, _ = run(capsys, "parents", "-", "--r", "6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 64


def test_parents_csv_blank_prediction_for_tiny_parents(capsys):
    code, out, _ = run(capsys, "parents", "-", "--r", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [
        ["2", "II", "1", "2", "0", "", "1"],
        ["1,1", "II", "2", "2", "0", "", "1"],
    ]


def test_alt_csv_row(capsys):
    code, out, _ = run(capsys, "alt", "9", "--format", "csv")
    assert code == 0
    assert out == "9,8,5,3,2,2,formula\n"
    code, out, _ = run(capsys, "alt", "9", "--format", "csv", "--header")
    assert code == 0
    assert out.splitlines() == [
        "n,a_circ,a1_circ,a3_circ,delta_circ,m2_hat,source",
        "9,8,5,3,2,2,formula",
    ]


@pytest.mark.parametrize("value", ["9", "soon"])
def test_env_var_is_ignored(capsys, monkeypatch, value):
    # no environment variable sets a limit
    monkeypatch.setenv("DIMLAB_ORACLE_BOUND", value)
    assert run(capsys, "counts", "6")[0] == 0
    assert run(capsys, "verify", "--max-n", "10")[0] == 0


def test_oracle_bound_only_where_it_is_used(capsys):
    assert run(capsys, "tower", "3,1", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "parents", "1", "--r", "2", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "counts", "6", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "alt", "6", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "verify", "--max-n", "5", "--oracle-bound", "5")[0] == 2


# every subcommand, with the keys its CSV rows carry
COMMANDS = {
    "counts": (["counts", "13"], list(CountReport._fields)),
    "alt": (["alt", "9"], list(AltReport._fields)),
    "tower": (["tower", "6,5,4,2,1,1"], ["partition", "weights", "depth"]),
    "parents": (["parents", "-", "--r", "2"],
                ["parent", "kind", "param", "affected", "eta", "predicted", "actual"]),
    "verify": (["verify", "--max-n", "6"], ["suite", "ok", "mismatches"]),
}


# the one-line summary of each command in the top-level help
SUMMARIES = {
    "counts": "residue-class counts for n",
    "verify": "formula-vs-oracle checks",
    "tower": "2-core tower of a partition",
    "parents": "hook-addition parents of a core",
    "alt": "alternating-group counts for n",
}


def test_help_lists_format_for_every_command(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert "--format" in out and all(command in out for command in COMMANDS)
    listing = [line.split() for line in out.splitlines()]
    for command, summary in SUMMARIES.items():
        assert [command, *summary.split()] in listing, command
    for command in COMMANDS:
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, ""), command
        assert out.startswith(f"usage: dimlab {command}") and "--format" in out, command


def test_bench_is_gone(capsys):
    code, out, err = run(capsys, "bench", "--max-n", "4")
    assert (code, out) == (2, "")
    assert "invalid choice: 'bench'" in err


@pytest.mark.parametrize("argv", [[], ["bench", "--max-n", "4"], ["--", "counts"],
                                  ["--", "counts", "6"], ["--format", "json", "counts", "6"]])
def test_a_line_that_does_not_start_with_a_command_is_refused(capsys, argv):
    # the top-level parser answers it, whatever command word comes later
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: dimlab [-h] ") and "dimlab: error: " in err


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    code, out, err = run(capsys, "counts", "6", "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["a1"] == 8
    # the usual line is read without argparse: no parser is built
    assert built == []
    # a line the reader declines, here an abbreviated option, meets the command's own
    # parser, and neither the top-level parser nor another command's is built
    assert run(capsys, "counts", "6", "--form", "json") == (0, out, "")
    assert built == ["dimlab counts"]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_writes_every_format(capsys, command, fmt):
    argv, keys = COMMANDS[command]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out and "\r" not in out
    if fmt == "json":
        doc = json.loads(out)
        if command in ("counts", "alt"):
            assert list(doc) == keys
        elif isinstance(doc, list):
            assert [list(row) for row in doc] == [keys] * len(doc)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(keys) for row in rows)
        code, out, _ = run(capsys, *argv, "--format", fmt, "--header")
        assert code == 0 and "\r" not in out
        header, *body = csv.reader(io.StringIO(out))
        assert header == keys
        assert len(body) == len(rows)


def test_repeat_runs_are_identical(capsys):
    first = run(capsys, "counts", "12", "--format", "json")
    second = run(capsys, "counts", "12", "--format", "json")
    assert first == second


# small enough for every route, or so big that every route refuses it
_numbers = st.one_of(st.integers(0, 40), st.integers(10**20, 10**30)).map(str)
_partition_texts = st.one_of(
    st.lists(st.one_of(st.integers(1, 40), st.integers(10**20, 10**30)), max_size=4)
    .map(lambda parts: ",".join(map(str, sorted(parts, reverse=True))) or "-"),
    st.sampled_from(["-", "", "3,,1", "1,3", "x", "0", "-1"]))
_flags = st.one_of(
    st.sampled_from([["--header"], ["-h"], ["--format", "csv"], ["--format", "json"],
                     ["--format", "text"], ["--format", "xml"]]),
    st.tuples(st.sampled_from(["--max-n", "--r", "--oracle-bound"]), _numbers).map(list))


_positionals = st.lists(st.one_of(_numbers, _partition_texts), max_size=2)
_flag_lists = st.lists(_flags, max_size=3)


def _line(positional, flags):
    return [*positional, *(word for flag in flags for word in flag)]


# no deadline: a cold verify --max-n 40 sweeps 215,308 partitions
@settings(deadline=None)
@given(st.sampled_from(["counts", "verify", "tower", "parents", "alt", "bench", "-h", "--",
                        "--format"]),
       _positionals, _flag_lists)
def test_fuzzed_command_lines_exit_0_or_2(command, positional, flags):
    argv = [command, *_line(positional, flags)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue(), argv


# lines after the command word that only argparse reads, or that test how the reader
# reads option order
READER_LINES = [
    ["6", "--format=json"], ["6", "--form", "json"], ["6", "--header", "--header"],
    ["6", "--format", "json", "--format", "csv"], ["--format", "json", "6"],
    ["--header", "6", "--format", "csv"], ["--", "6"], ["6", "--"], ["-h"], ["6", "--help"],
    ["-"], ["-6"], [""], ["6", "7"], ["6", "--format"], ["6", "--format", "-"],
    ["6", "--format", "xml"], ["6", "--format", ""], ["--max-n", "6"], ["--max-n", "-6"],
    ["--max-n", "6", "--max-n", "7"], ["--max-n", "0"], ["1", "--r", "2"], ["--r", "2", "1"],
    ["1", "--r"], ["1", "--r", "2", "--r", "3"], ["3,1", "--r", "x"], ["x"], ["1,3"],
]

# the usual line of each command: its positional or required option, then the options
USUAL = {
    "counts": (["6"], ["--format", "json"]),
    "alt": (["9"], ["--format", "csv", "--header"]),
    "verify": (["--max-n", "28"], ["--format", "json"]),
    "tower": (["6,5,4,2,1,1"], ["--format", "text", "--header"]),
    "parents": (["1", "--r", "2"], ["--format", "json"]),
}


def _parsed(command, words):
    # the command parser's Namespace of words, or None where it refuses or helps
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return command_parser(command).parse_args(words)
        except SystemExit:
            return None


def _assert_reader_agrees(command, words):
    # the reader declines, or makes the parser's own Namespace
    read = cli._read(command, list(words))
    assert read is None or read == _parsed(command, words), (command, words, read)


@pytest.mark.parametrize("words", READER_LINES, ids=" ".join)
@pytest.mark.parametrize("command", USUAL)
def test_the_reader_declines_or_agrees_with_argparse(command, words):
    _assert_reader_agrees(command, words)


@settings(deadline=None)
@given(st.sampled_from(list(USUAL)),
       st.one_of(st.builds(_line, _positionals, _flag_lists), st.sampled_from(READER_LINES)))
def test_the_reader_agrees_with_argparse_on_fuzzed_lines(command, words):
    _assert_reader_agrees(command, words)


@pytest.mark.parametrize("argv", [
    ["counts", "6", "--format=json"], ["counts", "6", "--form", "json"], ["counts", "-h"],
    ["counts", "6", "--header", "--header"], ["counts", "6", "--format", "json", "--format", "csv"],
    ["counts", "--", "6"], ["counts", "-6"], ["counts", "6", "7"], ["counts", "0"],
    ["counts", "6", "--format", "xml"], ["tower", "-"], ["verify", "--format", "json"],
    ["verify", "--max-n", "6", "--max-n", "6"], ["parents", "1", "--r"]], ids=" ".join)
def test_the_reader_leaves_other_lines_to_argparse(argv):
    # the reader keeps to exact options, each once, with values its checks pass:
    # a repeat, an abbreviation, -h or a refused value is argparse's to read
    assert cli._read(argv[0], argv[1:]) is None


@pytest.mark.parametrize("command", USUAL)
def test_the_usual_line_of_each_command_is_read_without_argparse(command):
    head, options = USUAL[command]
    for words in ([*head, *options], [*options, *head]):
        read = cli._read(command, words)
        assert read is not None and read == _parsed(command, words), words
