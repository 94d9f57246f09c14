"""A reference load that measures how fast the machine is running right now.

On a shared machine the same work can take up to twice as long from one
few-second stretch to the next, as neighbours contend for the caches and
memory.  A timer signal runs a fixed slice of memory-bound pure-Python work
(the benchmark's own code, never the program's) every INTERVAL_S of wall
time, in the main thread, between the program's bytecodes.  Each slice
reads rows scattered over about 6 MB, so it slows down under contention as
the program does.  ``scale(start, end)`` is NOMINAL_S over the mean slice
time around an interval: a time measured in that interval, multiplied by
it, is the time the work would take when a slice takes NOMINAL_S.

``clock()`` is a perf_counter that stops while a slice runs, so timings
taken with it exclude the reference load.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
WINDOW_S = 1.0  # slices within this much wall time around an interval scale it
NOMINAL_S = 0.0012  # about a slice's time on an uncontended 2 GHz x86-64 core
ROWS = 25_000
CHUNK = 4_000


class Reference:
    def __init__(self):
        rows = [tuple(range(i, i + 6)) for i in range(ROWS)]
        random.Random(5).shuffle(rows)  # scatter consecutive reads over memory
        self.rows = rows
        self.stamps: list = []  # perf_counter at the start of each slice
        self.samples: list = []  # each slice's duration
        self._paused = 0.0
        self._slice = 0

    def work(self) -> int:
        """One slice: read one chunk of rows and index part of it."""
        k = self._slice = (self._slice + 1) % (ROWS // CHUNK)
        part = self.rows[k * CHUNK : (k + 1) * CHUNK]
        total = 0
        for row in part:
            total += row[3]
        index = {row: i for i, row in enumerate(part[: CHUNK // 3])}
        return total + len(index)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.work()
        dt = perf_counter() - t0
        self.stamps.append(t0)
        self.samples.append(dt)
        self._paused += dt

    def clock(self) -> float:
        return perf_counter() - self._paused

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean slice time in [start, end] widened to at
        least WINDOW_S around its middle (perf_counter stamps)."""
        mid = (start + end) / 2
        lo = bisect_left(self.stamps, min(start, mid - WINDOW_S / 2))
        hi = bisect_right(self.stamps, max(end, mid + WINDOW_S / 2))
        window = self.samples[lo:hi] or self.samples
        return NOMINAL_S * len(window) / sum(window)
