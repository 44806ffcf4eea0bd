"""A fixed calibration loop that tracks the host's current speed.

A shared host runs the same code at different speeds from one moment to
the next: it switches between a fast and a slow state (about a factor of
two for this loop) every second or so, and for stretches of tens of
seconds other tenants load it. While the runner times passes, an interval
timer interrupts the pass every SAMPLE_EVERY_S and runs one repetition of
this loop, whatever library code is running at the time. The runner
leaves the repetitions' time out of the pass times and rescales the run's
times by NOMINAL_REP_S / (mean repetition time over the run). Sampled this
densely, the mean integrates the states the host went through during the
passes, as the pass times do, so a time reads as it would on the host at
its nominal speed.

The loop mixes the kinds of work the library does (Python calls over
frozensets, dicts, tuples and floats) and never touches ppmoments, so a
change to the library moves the measured times and leaves the scale alone.
It imports nothing outside the standard library, so it can sample a set-up
that imports numpy and scipy without doing part of that work itself.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager

# the mean repetition time on the reference host (2-core Intel Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4)
NOMINAL_REP_S = 0.0084
SAMPLE_EVERY_S = 0.1

_SITES = range(12)
_RANDOM = random.Random(0)
_POINTS = [(_RANDOM.random(), _RANDOM.random()) for _ in range(256)]


def _weight(config: frozenset, table: dict) -> float:
    return sum(table[x] for x in config) + 0.5 * len(config)


def repetition() -> float:
    table = {x: 0.1 * x - 0.3 for x in _SITES}
    total = 0.0
    for mask in range(0, 4096, 2):
        config = frozenset(x for x in _SITES if mask >> x & 1)
        total += _weight(config, table)
    points = _POINTS
    for _ in range(12):
        points = [(x * 0.999 + 0.0005, y * 0.999 + 0.0005) for x, y in points]
        total += sum(x + y for x, y in points if x > 0.25 and y < 0.75)
    return total


class Calibration:
    """Repetitions sampled through a run; spent_s is the time they took,
    for the caller to leave out of its own timings."""

    def __init__(self):
        self.rep_s: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        # on a host slow enough that a repetition outlasts the interval,
        # the next signal arrives inside this handler: skip it
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            repetition()
            took = time.perf_counter() - begin
        finally:
            self._busy = False
        self.rep_s.append(took)
        self.spent_s += took

    @contextmanager
    def sampling(self):
        """Run a repetition every SAMPLE_EVERY_S of wall time inside the
        with block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that brings a time measured in this run to nominal speed."""
        if not self.rep_s:
            self._sample(None, None)
        return NOMINAL_REP_S / statistics.fmean(self.rep_s)
