"""Benchmark of dimlab: one workload, one seed, every answer checked.

Run from the root of a dimlab checkout:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0

The package is imported from src/ of the checkout; without it the run
exits 2 and prints no result.  With --trace 0 every pass is untraced and
the end-to-end metrics are reported.  With --trace 1 untraced and traced
passes alternate and the per-layer metrics are reported, together with
the tracing overhead.  Each pass is cold: dimlab is imported afresh and
the workload built again before it (the timed set-up), and the memo
caches of enumeration and alternating are cleared.  A fixed slice of
pure-Python work (yardstick.py) runs between passes; set-up and pass
times are reported scaled to the reference speed by the slices around
them, so that a shared host's drifting speed cancels out, and the raw
wall times are kept beside them.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the same record, with the run environment, is written under
perfbench/out/.  A wrong answer fails the run (exit 1).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer, pass_metrics
from workloads import WORKLOADS, Reference
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("binary_arith", "partitions", "beta_sets", "parents", "core_towers",
           "enumeration", "alternating", "cli")


def load_dimlab() -> SimpleNamespace:
    """Import dimlab afresh from the checkout's src/ directory."""
    for key in [k for k in sys.modules if k == "dimlab" or k.startswith("dimlab.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    package = importlib.import_module("dimlab")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"dimlab was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **{
        m: importlib.import_module(f"dimlab.{m}") for m in MODULES})


def set_up(workload_cls, seed: int):
    """Import, reference loading, input building and table growth."""
    dl = load_dimlab()
    ref = Reference.load(BENCH / "reference.json")
    workload = workload_cls(dl, ref, seed)
    # grows dim_mod4's lookup tables to the largest size the workload meets
    dl.partitions.dim_mod4(dl.partitions.Partition((workload.largest,)))
    return workload


def timing_summary(samples: list[float]) -> dict | None:
    """Median and quartiles, plus the highest percentile with ten samples beyond it."""
    if not samples:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    out = {"samples": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3,
           "values": samples}
    if len(samples) > 10:
        ordered = sorted(samples)
        out["tail_percentile"] = 100 * (len(samples) - 10) / len(samples)
        out["tail"] = ordered[len(samples) - 11]
    return out


def measure(build, seconds: float, tracer: Tracer | None):
    """Set up and run cold passes for `seconds`; with a tracer, every second pass is traced.

    `build()` makes the workload.  It runs, timed, before every pass, so
    the set-up samples spread over the run as the pass samples do.  A
    yardstick slice runs before the first set-up and after every pass;
    each set-up and pass is also kept scaled to the reference speed by
    the two slices around it.
    """
    run = SimpleNamespace(setups=[], untraced=[], traced=[], layers=[], attempted=0,
                          failed=0, items=[], problems=[], last_spans=None,
                          slices=[yardstick.slice_s()], scaled=SimpleNamespace(
                              setups=[], untraced=[], traced=[]))
    begin = perf_counter()
    while True:
        start = perf_counter()
        workload = build()
        setup = perf_counter() - start
        dl = workload.dl
        traced = tracer is not None and len(run.untraced) > len(run.traced)
        dl.enumeration.clear_caches()
        dl.alternating.clear_caches()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install(dl)
            start = perf_counter()
            try:
                result = tracer.run(workload.run_pass)
            finally:
                elapsed = perf_counter() - start
                tracer.uninstall()
            layer = pass_metrics(tracer, dl.enumeration.FALLBACK)
            layer["enumeration.a2.cache_hit_ratio"] = hit_ratio(dl.enumeration.a2)
            layer["enumeration.delta.cache_hit_ratio"] = hit_ratio(dl.enumeration._delta)
            layer["failed_share"] = result.failed / result.attempted
            run.layers.append(layer)
            run.last_spans = tracer
        else:
            start = perf_counter()
            result = workload.run_pass()
            elapsed = perf_counter() - start
            run.items.append(result.items)
        run.attempted += result.attempted
        run.failed += result.failed
        run.problems += workload.check(result.outputs)
        if run.problems:
            break  # a wrong answer fails the run; it is never timed as a slow one
        run.slices.append(yardstick.slice_s())
        scale = yardstick.REFERENCE_S / statistics.fmean(run.slices[-2:])
        kind = "traced" if traced else "untraced"
        for raw, scaled, value in ((run.setups, run.scaled.setups, setup),
                                   (getattr(run, kind), getattr(run.scaled, kind), elapsed)):
            raw.append(value)
            scaled.append(value * scale)
        done = perf_counter() - begin >= seconds
        if done and (tracer is None or run.traced):
            break
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not run.problems:
        run.problems += workload.validate()
    return run


def hit_ratio(cached) -> float:
    info = cached.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "optimize_flag": sys.flags.optimize,  # -O strips the dual-route asserts
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def write_spans(path: Path, tr: Tracer) -> None:
    """Spans of the last traced pass, gzipped TSV: index, parent, name, start, end (ns)."""
    t0 = tr.start[0] if len(tr.start) else 0.0
    names = tr.names
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("span\tparent\tname\tstart_ns\tend_ns\n")
        f.writelines(
            f"{i}\t{tr.parent[i]}\t{names[tr.name[i]]}\t"
            f"{round((tr.start[i] - t0) * 1e9)}\t{round((tr.end[i] - t0) * 1e9)}\n"
            for i in range(len(tr.name)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dimlab" / "__init__.py").is_file():
        print(f"error: no dimlab sources at {SRC / 'dimlab'}; run from a dimlab checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("DIMLAB_ORACLE_BOUND", None)  # the default bound is part of the workload
    sys.path.insert(0, str(SRC))

    workload_cls = WORKLOADS[args.workload]
    run = measure(lambda: set_up(workload_cls, args.seed), args.seconds,
                  Tracer() if args.trace else None)
    job = timing_summary(run.scaled.untraced)

    metrics: dict[str, float] = {}
    if run.problems:
        pass  # no metrics for a run with wrong answers
    elif args.trace:
        for key in run.layers[0]:
            metrics[key] = statistics.median(layer[key] for layer in run.layers)
        metrics["trace.job_s"] = statistics.median(run.scaled.traced)
        metrics["trace.untraced_job_s"] = job["median"]
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - job["median"]
        metrics["machine.yardstick_s"] = statistics.median(run.slices)
        metrics["machine.wall_job_s"] = statistics.median(run.untraced)
        metrics["machine.wall_setup_s"] = statistics.median(run.setups)
    else:
        metrics = {
            "setup_s": statistics.median(run.scaled.setups),
            "job_s": job["median"],
            "items_per_s": statistics.median(run.items) / job["median"],
            "peak_rss_mib": run.peak_rss_mib,
            "answered_share": (run.attempted - run.failed) / run.attempted,
        }

    detail = {
        "environment": environment(args),
        "reference_speed": {"yardstick_reference_s": yardstick.REFERENCE_S,
                            "yardstick_s": timing_summary(run.slices)},
        "setup_s": timing_summary(run.scaled.setups),
        "job_s": job,
        "traced_job_s": timing_summary(run.scaled.traced),
        "wall_setup_s": timing_summary(run.setups),
        "wall_job_s": timing_summary(run.untraced),
        "items_per_pass": statistics.median(run.items) if run.items else None,
        "failed_share": run.failed / run.attempted,
        "problems": run.problems[:20],
    }
    for problem in run.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    if run.last_spans is not None:
        write_spans(OUT / f"{stem}.spans.tsv.gz", run.last_spans)
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {unit_of(key)}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(key: str) -> str:
    units = {"items_per_s": "1/s", "peak_rss_mib": "MiB",
             "core_towers.partitions_per_tower": "partitions/tower"}
    if key in units:
        return units[key]
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
