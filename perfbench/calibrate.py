"""Calibrating CPU-bound timings against the host's speed at the time.

On a shared host the same work ran up to ~50% slower in one run than in
the next, process CPU time included (no steal time was recorded: the CPU
itself ran slower, in phases lasting seconds).  A fixed probe — a
pure-Python loop plus small NumPy matrix products, the two kinds of work
the serving path does — is timed between operations, and a timing is
reported as ``raw * PROBE_NOMINAL_S / median(probe times)``: milliseconds
of a host on which the probe takes :data:`PROBE_NOMINAL_S`.  Four runs of
one warm loop read 3.9-4.8 ms per query raw and 1.36-1.48 probe units;
four runs of one tuning sequence 1.28-1.54 s raw and 415-452 probe units.

The probe lives in the benchmark, so no change under ``src/`` moves it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from perfbench import stats

#: Probe time on the reference host (2-CPU x86 VM, quiet).
PROBE_NOMINAL_S = 0.0025
#: During a timed loop, probe once this many seconds have passed.
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Seconds one fixed unit of interpreter and BLAS work takes right now."""
    start = time.perf_counter()
    total = 0
    for value in range(30000):
        total += (value * value) % 7
    matrix = np.ones((32, 32))
    for _ in range(50):
        matrix = matrix @ matrix * 0.001
    return time.perf_counter() - start


class Calibration:
    """Probe times taken during one measured phase."""

    def __init__(self):
        self.samples: List[float] = []
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        """Run the probe ``count`` times now."""
        for _ in range(count):
            self.samples.append(probe())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Multiply a raw timing by this to express it at reference speed."""
        return PROBE_NOMINAL_S / stats.median(self.samples)
