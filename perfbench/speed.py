"""Machine-speed probe: a fixed reference loop, timed throughout a measurement.

The per-core speed of the box this benchmark was written on drifts by up to
a third for seconds to minutes at a time.  A small loop of Python and numpy
work, unrelated to spgrad, slows down with the program: interleaved with
chain rollouts every ~15 ms, its time correlated with theirs at r = 0.99 and
their ratio varied by 1% where the rollouts alone varied by 8%.  Timing the
loop every ``INTERVAL`` seconds from a SIGALRM handler, and once before each
pass, gives the speed the machine ran at during that pass.  Dividing by it
turns a wall time into seconds at reference speed: the time the same work
would take while the loop takes ``REFERENCE_SECONDS``.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# The unit of speed: a warm reference_loop() takes 1.0-1.1 ms on the box
# the seed numbers come from (2-vCPU Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6) in its fast spells and about twice that in its slow ones.
REFERENCE_SECONDS = 0.001
INTERVAL = 0.1
_ITERATIONS = 600
_STEP = np.arange(6.0)


def reference_loop() -> float:
    x = np.zeros(6)
    total = 0.0
    for _ in range(_ITERATIONS):
        x = x * 0.5 + _STEP
        total += float(np.dot(x, x))
    return total


class SpeedProbe:
    """Reference-loop timings (start, duration) taken while a block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy_s: list[float] = []  # wall time each sample took, warm-up included
        self._busy = False

    def sample(self) -> None:
        # The first run warms the loop back into the caches the program
        # evicted; only the second is timed, so the sample measures the
        # machine rather than the program's memory footprint.
        start = time.perf_counter()
        reference_loop()
        timed = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - timed)
        self.busy_s.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest inside a running sample
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """Mean loop time over [start, end], counting the last sample taken
        before ``start``, and the time the probe itself spent inside it."""
        lo = max(bisect.bisect_left(self.starts, start) - 1, 0)
        hi = bisect.bisect_right(self.starts, end)
        first_inside = lo + 1 if self.starts[lo] < start else lo
        return statistics.fmean(self.durations[lo:hi]), sum(self.busy_s[first_inside:hi])


def reference_speed(repeats: int = 5) -> float:
    """Median warm reference-loop time right now, over a few samples."""
    probe = SpeedProbe()
    for _ in range(repeats):
        probe.sample()
    return statistics.median(probe.durations)
