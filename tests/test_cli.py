import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import pytest

import dimlab
from dimlab import alternating, enumeration
from dimlab.alternating import AltReport
from dimlab.cli import main
from dimlab.enumeration import CountReport


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


def test_counts_past_oracle_bound(capsys):
    # 55 needs the oracle for delta but lies beyond the default bound
    code, out, err = run(capsys, "counts", "55")
    assert code == 2
    assert "error:" in err


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("ok ")) == 8
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "verify: ok up to n=10 (0 mismatches)"


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


def test_verify_needs_bound(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "50")
    assert code == 2
    assert "oracle bound" in err
    assert run(capsys, "verify", "--max-n", "10", "--oracle-bound", "9")[0] == 2


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


def test_env_var_sets_bound(capsys, monkeypatch):
    monkeypatch.setenv("DIMLAB_ORACLE_BOUND", "9")
    assert run(capsys, "verify", "--max-n", "10")[0] == 2
    # the command-line flag wins over the environment
    assert run(capsys, "verify", "--max-n", "10", "--oracle-bound", "12")[0] == 0


def test_env_var_junk(capsys, monkeypatch):
    monkeypatch.setenv("DIMLAB_ORACLE_BOUND", "soon")
    code, _, err = run(capsys, "counts", "6")
    assert code == 2
    assert "DIMLAB_ORACLE_BOUND" in err
    # the commands that take no oracle bound do not read it
    assert run(capsys, "tower", "3,1")[0] == 0
    assert run(capsys, "parents", "1", "--r", "2")[0] == 0


def test_oracle_bound_only_where_it_is_used(capsys):
    assert run(capsys, "tower", "3,1", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "parents", "1", "--r", "2", "--oracle-bound", "5")[0] == 2
    assert run(capsys, "counts", "6", "--oracle-bound", "5")[0] == 0
    assert run(capsys, "alt", "6", "--oracle-bound", "5")[0] == 0
    assert run(capsys, "verify", "--max-n", "5", "--oracle-bound", "5")[0] == 0


# every subcommand, with the keys its CSV rows carry
COMMANDS = {
    "counts": (["counts", "13"], [f.name for f in dataclasses.fields(CountReport)]),
    "alt": (["alt", "9"], [f.name for f in dataclasses.fields(AltReport)]),
    "tower": (["tower", "6,5,4,2,1,1"], ["partition", "weights", "depth"]),
    "parents": (["parents", "-", "--r", "2"],
                ["parent", "kind", "param", "affected", "eta", "predicted", "actual"]),
    "verify": (["verify", "--max-n", "6"], ["suite", "ok", "mismatches"]),
}


def test_help_lists_format_for_every_command(capsys):
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert "--format" in out and all(command in out for command in COMMANDS)
    for command in COMMANDS:
        code, out, err = run(capsys, command, "-h")
        assert (code, err) == (0, ""), command
        assert out.startswith(f"usage: dimlab {command}") and "--format" in out, command


def test_bench_is_gone(capsys):
    code, out, err = run(capsys, "bench", "--max-n", "4")
    assert (code, out) == (2, "")
    assert "invalid choice: 'bench'" in err


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
