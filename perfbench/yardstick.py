"""A fixed slice of pure-Python work that measures how fast the machine runs now.

On a shared host the speed of one core drifts by up to 1.5x over seconds
to minutes, as other tenants load the machine; CPU time drifts with wall
time, so it does not help.  The benchmark runs this slice between its
passes and scales each pass by the speed the slices around it saw.  The
slice does the kind of work dimlab does (partitions as tuples, their
conjugates, 2-adic valuations of hook lengths, a dict of results), so a
contended core slows it about as much as it slows dimlab.  It imports
nothing from dimlab: no change to the package can make it faster or
slower.
"""

from __future__ import annotations

import gc
from time import perf_counter

SIZE = 18  # 385 partitions
REPS = 24
# Seconds a slice takes at the reference speed: a 2-core Xeon sandbox in
# an uncontended phase, Python 3.  A pass's scaled time is its wall time
# times REFERENCE_S over the wall time of the slices around it.
REFERENCE_S = 0.1


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _unit(n: int) -> int:
    """Sum over the partitions of n of the 2-adic valuation of the hook product."""
    seen = {}
    for p in _partitions(n, n):
        conj = [sum(1 for x in p if x > j) for j in range(p[0])]
        v = 0
        for i, row in enumerate(p):
            for j in range(row):
                h = row - j + conj[j] - i - 1
                while h & 1 == 0:
                    h >>= 1
                    v += 1
        seen[p] = v
    return sum(seen.values())


CHECKSUM = 4862  # _unit(SIZE); a slice that computes anything else is refused


def slice_s() -> float:
    """Wall seconds of one slice, with the cyclic collector off (the slice makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REPS):
            total = _unit(SIZE)
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total != CHECKSUM:
        raise RuntimeError(f"yardstick computed {total}, not {CHECKSUM}")
    return elapsed
