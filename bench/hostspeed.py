"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the same code can run up to 1.7x slower from one
second to the next, in CPU time as well as wall time, because other
tenants contend for the core. The reference kernel does the same mix of
work as the workloads (small dense LAPACK calls and interpreted Python)
and never changes: it uses numpy only, not nhlab. A run samples it just
before and just after each timed item; the mean sample time over
``NOMINAL_S`` is the host slowdown the item ran under, and the item's
time divided by it reads as seconds on the host at its nominal speed.
The host changes speed within seconds, so only samples next to the item
track it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical kernel time on a quiet stretch of a shared two-core Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS, one BLAS thread). Only a scale: it
# must stay fixed so results of different commits compare.
NOMINAL_S = 0.0045

_MATRICES = [np.random.default_rng(k).standard_normal((60, 60)) for k in range(4)]
_eigvals = np.linalg.eigvals   # bound before a tracer can wrap numpy.linalg


def kernel() -> float:
    """One sample: four 60x60 eigvals and a short Python loop."""
    s = 0.0
    for a in _MATRICES:
        s += float(np.abs(_eigvals(a)).min())
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    return s + acc


def sample(seconds: float) -> list[float]:
    """Kernel wall times, one per call, for at least ``seconds`` (at least one call)."""
    times = []
    end = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return times


def slowdown(before: list[float], after: list[float]) -> float:
    """Host slowdown over a stretch flanked by two blocks of samples."""
    times = before + after
    return sum(times) / len(times) / NOMINAL_S
