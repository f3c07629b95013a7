"""Machine-speed reference for the end-to-end timings.

The benchmark's host shares its cores with other tenants, and its speed
drifts: one fixed ``certify`` instance takes anywhere from 55 to 100 ms from
one second to the next, in spells that last several seconds.  A run is not
long against those spells, so raw call times differ between runs about as
much as the host does, which is more than any bound could allow.

``loop_time()`` times a fixed loop of interpreter and small-array work that
never calls the library.  The benchmark takes it before the first timed
call, between calls (at least every ``EVERY_S`` seconds) and after the last
one.  A call's time divided by the mean loop time around it is the call's
time in loops; multiplied by ``REFERENCE_S`` it reads in seconds again, as
on a host that runs the loop in exactly ``REFERENCE_S``.  A change to the
library moves the call time and not the loop, so the figure follows the
library and much less the host.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter

import numpy as np

# The loop's time on the benchmark's host in its faster mode (2 CPUs,
# CPython 3.11, numpy 2.4); a fixed constant, so figures from different
# runs and commits compare directly.
REFERENCE_S = 1.5e-3
# Longest stretch of calls between two loop timings, in seconds.
EVERY_S = 0.25
REPEATS = 3

_SMALL = np.arange(300.0)


def _loop() -> float:
    s = 0
    for i in range(10_000):
        s += i * i
    t = float(s % 7)
    for i in range(150):
        t += float(np.minimum(_SMALL * 1.5 + i, 7.0).sum())
    return t


def loop_time() -> float:
    """Median of REPEATS timings of the reference loop, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def at_reference(latencies, marks: list[tuple[int, float]]) -> array:
    """``latencies`` scaled to the reference speed.  ``marks`` holds
    ``(i, loop_time)`` pairs, in order of ``i``, taken just before call
    ``i``; the first has i = 0 and the last i = len(latencies).  Each call
    is scaled by the mean of the two loop times around it."""
    out = array("d", latencies)
    for (a, before), (b, after) in zip(marks, marks[1:]):
        factor = REFERENCE_S / ((before + after) / 2.0)
        for i in range(a, b):
            out[i] *= factor
    return out
