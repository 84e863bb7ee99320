"""A fixed amount of CPU work that measures how fast the machine runs now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes, and by up to 2x within twenty minutes.
CPU time tracks wall time, so the drift is not time spent off the CPU: the
same instructions simply run slower. ``server.py`` runs this probe between
jobs, in the process that runs the jobs, and ``run.py`` divides each
repetition's times by the probe's times of the same repetition.

The probe has three parts, one per kind of work the workloads do, each
taking about the same time: interpreted Python (the lab's per-example loops
and the CLI), numpy on small arrays (per-call overhead in collapse_lp), and
numpy on arrays of a few MB (hypercube enumeration). It does not call
stablebounds, so a change to the program leaves the probe's time alone. Its
buffers take about 4 MB, which peak RSS includes on every workload alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median time of each part over 2492 probes in 66 benchmark runs on a 2-core
# x86-64 host. A time is reported as measured time * (reference time of the
# parts used) / (mean measured time of those parts), that is in seconds at
# the speed of that host.
REFERENCE_S = {"python": 0.0167, "small_arrays": 0.0157, "large_arrays": 0.0153}

_SMALL = np.linspace(-1.0, 1.0, 64)
_LARGE = np.random.default_rng(0).standard_normal(1 << 18)
_BUFFER = np.empty_like(_LARGE)


def _python() -> int:
    table = {}
    total = 0
    for i in range(60000):
        key = i % 97
        total += (i * i) % 7 + table.get(key, 0)
        table[key] = total & 255
    return total


def _small_arrays() -> float:
    x = _SMALL
    total = 0.0
    for _ in range(2400):
        x = np.tanh(0.5 * x + 0.1)
        total += float(x.sum())
    return total


def _large_arrays() -> float:
    total = 0.0
    for _ in range(14):
        np.multiply(_LARGE, 1.000001, out=_BUFFER)
        np.add(_BUFFER, _LARGE, out=_BUFFER)
        total += float(np.abs(_BUFFER).sum())
    _BUFFER.sort()
    return total + float(_BUFFER[0])


PARTS = {"python": _python, "small_arrays": _small_arrays, "large_arrays": _large_arrays}


def probe() -> dict:
    """Seconds taken by each part of one probe."""
    times = {}
    for name, part in PARTS.items():
        start = perf_counter()
        part()
        times[name] = perf_counter() - start
    return times


def scale(probes: list[dict], parts) -> float:
    """Seconds at the reference speed per second measured, from the times of
    ``parts`` in ``probes`` (results of ``probe``); 1.0 without probes."""
    if not probes:
        return 1.0
    measured = statistics.fmean(sum(times[name] for name in parts) for times in probes)
    return sum(REFERENCE_S[name] for name in parts) / measured
