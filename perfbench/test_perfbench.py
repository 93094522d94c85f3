"""Tests of the benchmark's own code: answer checks, refusal counting, tracing.

Run from the root of a dimlab checkout:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import CountsLadder, OddStream, OracleSweep, Reference, TowerSweep  # noqa: E402

DATA = json.loads((HERE / "reference.json").read_text())


def setUpModule():
    global DL, REF
    sys.path.insert(0, str(run.SRC))
    DL = run.load_dimlab()
    REF = Reference(DATA)


def corrupted(mutate) -> Reference:
    data = copy.deepcopy(DATA)
    mutate(data)
    return Reference(data)


def bump_sym(n: int, column: int):
    def mutate(data):
        data["sym"][n - 1][column] += 1
    return mutate


class ReferenceChecks(unittest.TestCase):
    def test_reference_rows_are_indexed_by_n(self):
        self.assertEqual([row[0] for row in DATA["sym"]], list(range(1, 49)))
        self.assertEqual([row[0] for row in DATA["alt"]], list(range(1, 41)))
        self.assertEqual(REF.delta(31), 0)
        self.assertEqual(REF.delta(58), -64)

    def test_oracle_sweep_catches_a_corrupted_reference(self):
        good = OracleSweep(DL, REF, seed=0, max_n=8)
        self.assertEqual(good.check(good.run_pass().outputs), [])
        self.assertEqual(good.validate(), [])
        bad = OracleSweep(DL, corrupted(bump_sym(7, 2)), seed=0, max_n=8)
        self.assertEqual(bad.check(bad.run_pass().outputs), [])
        self.assertTrue(bad.validate())

    def test_odd_stream_catches_a_corrupted_delta(self):
        good = OddStream(DL, REF, seed=0, sizes=range(48, 50))
        self.assertEqual(good.check(good.run_pass().outputs), [])
        self.assertEqual(good.validate(), [])
        ref = corrupted(lambda data: data["leading_11_delta"].update({"49": 4}))
        bad = OddStream(DL, ref, seed=0, sizes=range(48, 50))
        self.assertTrue(bad.check(bad.run_pass().outputs))

    def test_tower_sweep_catches_a_corrupted_tally(self):
        good = TowerSweep(DL, REF, seed=0, n=9)
        self.assertEqual(good.check(good.run_pass().outputs), [])
        bad = TowerSweep(DL, corrupted(bump_sym(9, 2)), seed=0, n=9)
        self.assertTrue(bad.check(bad.run_pass().outputs))

    def test_counts_ladder_catches_corrupted_counts_and_alt(self):
        good = CountsLadder(DL, REF, seed=0, rungs=[6, 12])
        self.assertEqual(good.check(good.run_pass().outputs), [])
        for mutate in (bump_sym(6, 1), lambda data: data["alt"][11].__setitem__(3, 5)):
            bad = CountsLadder(DL, corrupted(mutate), seed=0, rungs=[6, 12])
            self.assertTrue(bad.check(bad.run_pass().outputs))

    def test_counts_ladder_reports_a_malformed_answer(self):
        ladder = CountsLadder(DL, REF, seed=0, rungs=[6])
        outputs = [("counts", 6, 0, "a = 8\n", ""), ("alt", 6, 0, '{"n": 6}', "")]
        self.assertEqual(len(ladder.check(outputs)), 2)

    def test_seeded_rungs_keep_their_binary_pattern(self):
        for seed in range(20):
            ladder = CountsLadder(DL, REF, seed=seed)
            even_10, odd_11 = [n for cmd, n, _ in ladder.calls[-4::2]]
            self.assertTrue(65 <= even_10.bit_length() <= 256)
            self.assertEqual((even_10 >> (even_10.bit_length() - 2), even_10 & 1), (0b10, 0))
            self.assertTrue(257 <= odd_11.bit_length() <= 1024)
            self.assertEqual((odd_11 >> (odd_11.bit_length() - 2), odd_11 & 1), (0b11, 1))


class Refusals(unittest.TestCase):
    def test_refusals_count_as_failed_not_wrong(self):
        ladder = CountsLadder(DL, REF, seed=0, rungs=[5, 87381, 10**6])
        result = run.measure(lambda: ladder, 0, None)
        self.assertEqual((result.attempted, result.failed), (6, 4))
        self.assertEqual(result.problems, [])

    def test_traced_run_sorts_refusals_by_limit(self):
        ladder = CountsLadder(DL, REF, seed=0, rungs=[5, 87381, 10**6])
        layers = run.measure(lambda: ladder, 0, Tracer()).layers[0]
        self.assertAlmostEqual(layers["failed_share"], 4 / 6)
        self.assertEqual(layers["enumeration.refusals.size"], 2)  # 87381: 64-bit odd count
        self.assertEqual(layers["enumeration.refusals.bound"], 2)  # 10**6: no formula, past bound


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
        start, end, parent = [0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2]
        self.assertEqual(self_times(start, end, parent), [10 - 2 - 4, 2, 4 - 1, 1])

    def test_overlapping_children_count_once(self):
        start, end, parent = [0, 1, 2, 7], [10, 4, 6, 12], [-1, 0, 0, 0]
        # children cover [1, 6] and [7, 10] of the root (the last one is clipped)
        self.assertEqual(self_times(start, end, parent)[0], 10 - 5 - 3)

    def test_self_times_of_a_traced_pass_add_up_to_the_pass(self):
        tracer = Tracer()
        layers = run.measure(lambda: OddStream(DL, REF, seed=0, sizes=range(20, 26)), 0, tracer).layers[0]
        total = sum(layers[f"{layer}.self_s"] for layer in ("partitions", "beta_sets", "parents",
                    "core_towers", "enumeration", "alternating", "cli", "bench"))
        self.assertAlmostEqual(total, tracer.end[0] - tracer.start[0], places=9)


class ReferenceSpeed(unittest.TestCase):
    def test_passes_are_scaled_by_the_slices_around_them(self):
        slices = iter([0.2, 0.4, 0.05])
        with mock.patch.object(run.yardstick, "slice_s", lambda: next(slices)):
            result = run.measure(lambda: TowerSweep(DL, REF, seed=0, n=6), 0, None)
        self.assertEqual(result.slices, [0.2, 0.4])
        scale = run.yardstick.REFERENCE_S / 0.3
        self.assertAlmostEqual(result.scaled.untraced[0], result.untraced[0] * scale)
        self.assertAlmostEqual(result.scaled.setups[0], result.setups[0] * scale)

    def test_a_slice_checks_its_own_answer(self):
        self.assertGreater(run.yardstick.slice_s(), 0)
        with mock.patch.object(run.yardstick, "CHECKSUM", -1), self.assertRaises(RuntimeError):
            run.yardstick.slice_s()


class Tracing(unittest.TestCase):
    def snapshot(self):
        return {(mod.__name__, attr): value for mod in vars(DL).values()
                for attr, value in vars(mod).items()}

    def test_uninstall_restores_every_binding(self):
        before = self.snapshot()
        init = DL.partitions.Partition.__init__
        run.measure(lambda: TowerSweep(DL, REF, seed=0, n=6), 0, Tracer())
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[k] is after[k] for k in before))
        self.assertIs(DL.partitions.Partition.__init__, init)

    def test_routing_at_seed(self):
        towers = run.measure(lambda: TowerSweep(DL, REF, seed=0, n=10), 0, Tracer()).layers[0]
        self.assertEqual(towers["parents.all_parents.calls"], 0)
        self.assertGreater(towers["core_towers.tower.calls"], 0)
        stream = run.measure(lambda: OddStream(DL, REF, seed=0, sizes=range(20, 26)), 0, Tracer()).layers[0]
        self.assertEqual(stream["partitions.enumerate_partitions.items"], 0)
        self.assertEqual(stream["core_towers.tower.calls"], 0)
        self.assertEqual(stream["enumeration.enumerate_odd_partitions.items"],
                         sum(1 << sum(i for i in range(6) if n >> i & 1) for n in range(20, 26)))

    def test_traced_metrics_are_the_declared_per_layer_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layers = run.measure(lambda: TowerSweep(DL, REF, seed=0, n=6), 0, Tracer()).layers[0]
        reported = set(layers) | {"trace.job_s", "trace.untraced_job_s", "trace.overhead_s",
                                  "machine.yardstick_s", "machine.wall_job_s",
                                  "machine.wall_setup_s"}
        self.assertEqual(reported, {m["name"] for m in spec["per_layer"]})
        for metric in spec["per_layer"]:
            self.assertEqual(run.unit_of(metric["name"]), metric["unit"], metric["name"])


class CommandLine(unittest.TestCase):
    def test_result_line_has_the_declared_end_to_end_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        out = io.StringIO()
        with mock.patch.object(CountsLadder, "FIXED", [3, 87381]), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "counts_ladder", "--seed", "1", "--seconds", "0"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual((result["attempted"], result["failed"]), (8, 6))

    def test_without_sources_it_exits_2_and_prints_no_result(self):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "SRC", HERE / "no-such-dir"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "oracle_sweep", "--seed", "1", "--seconds", "1"])
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
