"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared machine the speed of the whole virtual CPU drifts by
tens of percent over tens of seconds; CPU time drifts with wall time, so
the drift comes from the host, not from preemption.  The benchmark
therefore runs a short fixed kernel of small-array numpy work (no
netmoments code) after every operation and scales the operation's time
by ``(REFERENCE_S / k) ** EXPONENT``, where ``k`` is the median kernel
time around it.  The kernel reacts to host contention somewhat more than
the library's mixed work does; over long single-process traces of all
four workloads, cut into 20 s windows, an exponent of 0.8 gave the
steadiest window medians (coefficient of variation 2-6 %, against 5-9 %
unscaled).  A test copy of the library whose top-level calls each
busy-waited for a fifth of their own time (a 20 % slowdown) moved the
median scaled request latency by 16-21 % and the scaled throughput by
12-15 % on the four workloads, while the wall-clock figures of the same
runs moved by 4-82 % (three interleaved pairs per workload, 25 s runs).
The scale is close to, not exactly, proportional to wall time.  Raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.004  # about the kernel's time on the 2-vCPU Xeon machine the bounds were set on
WINDOW = 2  # kernel samples on each side of an operation that scale it
EXPONENT = 0.8


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rng = rng
        self._a = (rng.random((80, 80)) < 0.3).astype(np.int8)
        self._idx = np.sort(rng.choice(80, size=40, replace=False))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        # Induced-subgraph-sized array work of the kind the library does per
        # network: fancy indexing, value checks, casts, reductions, draws.
        acc = 0.0
        for _ in range(60):
            b = self._a[np.ix_(self._idx, self._idx)]
            ok = np.isin(b, (0, 1)).all() and not (b != b.T).any()
            acc += float(b.astype(np.float64).sum(axis=1)[0]) + ok
            acc += float(self._rng.random(780)[0])
        return acc

    def sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, index: int) -> float:
        """Scale for the operation just before kernel sample ``index``."""
        lo, hi = max(0, index - WINDOW), index + WINDOW + 1
        return (REFERENCE_S / statistics.median(self.samples[lo:hi])) ** EXPONENT

    def run_factor(self) -> float:
        """Scale from every sample taken so far."""
        return (REFERENCE_S / statistics.median(self.samples)) ** EXPONENT
