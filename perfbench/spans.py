"""Span tracing of dimlab from outside the package.

`Tracer.install` rebinds dimlab's public functions, in every dimlab
module that imported them, to wrappers that record one span per call
(name, start, end, parent span).  Generators get one span per resume, so
a stream's self time is the work done between its yields.  Functions
called too often to time, and the two value-object constructors, get a
call counter instead.  `Tracer.uninstall` puts every original back.  No
source file of the package changes.

Spans live in flat arrays while a pass runs; `pass_metrics` turns them
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from time import perf_counter

ROOT_SPAN = "bench.pass"

# Functions that get a span per call, by module.
SPANNED = {
    "partitions": ("dim_mod4", "conjugate"),
    "beta_sets": ("first_column_hooks", "to_partition", "shift", "t_core"),
    "parents": ("all_parents", "sign_flip_parity"),
    "core_towers": ("tower", "two_quotient", "two_core", "combine",
                    "tower_to_partition", "classify_by_tower"),
    "enumeration": ("count_odd", "delta", "a2", "oracle_counts", "formula_counts"),
    "alternating": ("alternating_oracle", "formula_alt_counts"),
    "cli": ("main",),
}
# Generators that get a span per resume.
STREAMS = {
    "partitions": ("enumerate_partitions",),
    "enumeration": ("enumerate_odd_partitions",),
}
# Called too often to time: counted only.
COUNTED = {"partitions": ("hook_lengths",)}
CONSTRUCTED = {"partitions": "Partition", "beta_sets": "BetaSet"}
LAYERS = ("partitions", "beta_sets", "parents", "core_towers", "enumeration",
          "alternating", "cli", "bench")

CALL, YIELDED = 0, 1


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in the order they were opened, so that a parent
    comes before its children and siblings come in order of start.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per span, how far its children's cover extends
    for c in range(n):
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.name = array("i")
        self.parent = array("i")
        self.kind = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.values: dict[int, object] = {}  # span index -> observed result
        self.origins: list[tuple[int, str]] = []  # (span index, exception type)
        self._stack = [-1]
        self._last_exc: BaseException | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.kind.append(CALL)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def fail(self, i: int, exc: BaseException) -> None:
        # the innermost span an exception leaves is where it was raised
        if exc is not self._last_exc:
            self._last_exc = exc
            self.origins.append((i, type(exc).__name__))

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.fail(i, exc)
                raise
            finally:
                tracer.close(i)
            if observe is not None:
                tracer.values[i] = observe(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapped, attr, getattr(fn, attr))
        return wrapped

    def _stream(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        def resumes(gen):
            while True:
                i = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    tracer.fail(i, exc)
                    raise
                finally:
                    tracer.close(i)
                tracer.kind[i] = YIELDED
                yield item

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return resumes(fn(*args, **kwargs))

        return wrapped

    def _counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installing -----------------------------------------------------

    def install(self, dl) -> None:
        """Wrap the traced functions in every dimlab module that `dl` holds."""
        modules = list(vars(dl).values())
        observers = {
            "parents.all_parents": len,  # parent records returned
            "enumeration.delta": lambda out: out[1],  # status: formula or fallback
            "enumeration.oracle_counts": lambda report: report.a,  # odd partitions found
        }
        for mod, names in SPANNED.items():
            for fname in names:
                key = f"{mod}.{fname}"
                orig = getattr(getattr(dl, mod), fname)
                self._rebind(modules, orig, self._spanned(key, orig, observers.get(key)))
        for mod, names in STREAMS.items():
            for fname in names:
                orig = getattr(getattr(dl, mod), fname)
                self._rebind(modules, orig, self._stream(f"{mod}.{fname}", orig))
        for mod, names in COUNTED.items():
            for fname in names:
                orig = getattr(getattr(dl, mod), fname)
                self._rebind(modules, orig, self._counted(f"{mod}.{fname}.calls", orig))
        arith = dl.binary_arith
        for fname, orig in list(vars(arith).items()):
            if (inspect.isfunction(orig) and orig.__module__ == arith.__name__
                    and not fname.startswith("_")):
                self._rebind(modules, orig, self._counted("binary_arith.calls", orig))
        for mod, cls_name in CONSTRUCTED.items():
            cls = getattr(getattr(dl, mod), cls_name)
            self._patch(cls, "__init__", self._counted(f"{mod}.{cls_name}.built", cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def _rebind(self, modules, orig, replacement) -> None:
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._patch(m, attr, replacement)

    def _patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def run(self, fn):
        """Call fn() inside the root span of a pass."""
        i = self.open(self.name_id(ROOT_SPAN))
        try:
            return fn()
        finally:
            self.close(i)


def pass_metrics(tr: Tracer, fallback: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `fallback` is the status string `enumeration.delta` returns when it
    fell back to the brute-force oracle.
    """
    names = tr.names
    name, parent, kind = tr.name, tr.parent, tr.kind
    n = len(name)
    own = self_times(tr.start, tr.end, parent)
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    items: Counter[str] = Counter()
    for i in range(n):
        key = names[name[i]]
        calls[key] += 1
        self_s[key] += own[i]
        p = parent[i]
        if kind[i] == YIELDED and (p < 0 or name[p] != name[i]):
            items[key] += 1  # only items that leave the stream, not its recursion

    # Partitions the oracle touched, per oracle_counts span.  Under a delta
    # span that work is a fallback: of the partitions it lists, only the
    # odd-dimension ones (the oracle's `a`) enter delta.  A fallback that
    # streams odd partitions instead touches only useful ones.
    oracle = tr.name_id("enumeration.oracle_counts")
    delta = tr.name_id("enumeration.delta")
    listing = tr.name_id("partitions.enumerate_partitions")
    odd_stream = tr.name_id("enumeration.enumerate_odd_partitions")
    nearest = array("i", [-1]) * n  # nearest oracle_counts span at or above i
    in_delta = bytearray(n)  # 1 when a delta span is above i
    touched: Counter[int] = Counter()
    useful = swept = 0
    for i in range(n):
        p = parent[i]
        if p >= 0:
            nearest[i] = nearest[p]
            in_delta[i] = in_delta[p] or name[p] == delta
        if name[i] == oracle:
            nearest[i] = i
        elif kind[i] != YIELDED:
            continue
        elif name[i] == listing and nearest[i] >= 0:
            touched[nearest[i]] += 1
        elif name[i] == odd_stream and in_delta[i] and name[p] != odd_stream:
            useful += 1
            swept += 1
    for i, count in touched.items():
        if in_delta[i]:
            useful += tr.values.get(i, 0)
            swept += count
    refusals = Counter()
    for i, exc_type in tr.origins:
        if exc_type == "SizeLimitError":
            refusals["size" if names[name[i]] == "enumeration.count_odd" else "bound"] += 1
    fallbacks = sum(1 for i, v in tr.values.items()
                    if name[i] == delta and v == fallback)

    out: dict[str, float] = {}
    for mod, fnames in SPANNED.items():
        for fname in fnames:
            key = f"{mod}.{fname}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
    for mod, fnames in STREAMS.items():
        for fname in fnames:
            key = f"{mod}.{fname}"
            out[f"{key}.items"] = items[key]
            out[f"{key}.self_s"] = self_s[key]
    for key in ("partitions.hook_lengths.calls", "partitions.Partition.built",
                "beta_sets.BetaSet.built", "binary_arith.calls"):
        out[key] = tr.counts[key]
    out["parents.all_parents.records"] = sum(
        v for i, v in tr.values.items() if names[name[i]] == "parents.all_parents")
    towers = calls["core_towers.tower"]
    out["core_towers.partitions_per_tower"] = (
        tr.counts["partitions.Partition.built"] / towers if towers else 0.0)
    out["enumeration.oracle.partitions_touched"] = sum(touched.values())
    out["enumeration.delta.fallbacks"] = fallbacks
    out["enumeration.fallback.useful_ratio"] = useful / swept if swept else 0.0
    out["enumeration.refusals.bound"] = refusals["bound"]
    out["enumeration.refusals.size"] = refusals["size"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["trace.spans"] = n
    return out
