"""Scaling measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more within seconds, so two runs of the same code can differ by
more than any useful regression bound.  A ``Gauge`` samples that speed: a
wall-clock timer interrupts the process every ``SAMPLE_EVERY_S`` and times
one fixed pure-Python reference loop (dict, set and integer work, like the
program's own).  A stretch of work measured between two marks is scaled by
``REFERENCE_S`` over the mean loop time sampled in it, which gives the time
it would take on a machine on which the loop takes ``REFERENCE_S``.  The
time the samples themselves take is left out of every measurement.

The loop shares no code with the program, so a change to the program moves
the scaled times exactly as it moves the measured ones; only the host's
drift cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the mean time of one ``reference_loop`` call on the machine the
# reference figures in README.md were taken on (a shared 2-core Xeon VM,
# Python 3.11).
REFERENCE_S = 0.00115
# Short samples taken often: the host's speed changes within a second, and
# 40 samples a second estimate its mean over a stretch better than 10
# samples four times as long, at the same cost of under 5 %.
SAMPLE_EVERY_S = 0.025
WARMUP_LOOPS = 5

# Reused so that the loop allocates no object the garbage collector tracks,
# and so never starts a collection of the program's objects.
_TABLE: dict[int, int] = {}
_SEEN: set[int] = set()


def reference_loop() -> int:
    _TABLE.clear()
    _SEEN.clear()
    acc = 0
    for i in range(2500):
        key = (i * 7919) % 1009
        _TABLE[key] = _TABLE.get(key, 0) + i
        if key & 1:
            _SEEN.add(key)
        else:
            _SEEN.discard(key - 1)
        acc += len(_SEEN)
    return acc


class Gauge:
    """Samples the reference loop on a timer; scales stretches of work."""

    def __init__(self) -> None:
        for _ in range(WARMUP_LOOPS):
            reference_loop()
        # (start, end) of every sample on the perf_counter clock, and the
        # loop's time in it.
        self.spans: list[tuple[float, float]] = []
        self.loop_s: list[float] = []
        self._sampling = False
        self._sample()

    def _sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal that arrived during a sample
            return
        self._sampling = True
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.spans.append((start, end))
        self.loop_s.append(end - start)
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A mark to measure from: read it before the clock."""
        return len(self.spans)

    def work_seconds(self, mark: int, start: float, end: float) -> float:
        """``end - start`` less the samples taken within it.  A sample runs
        in this thread, so it lies wholly inside or wholly outside."""
        sampling = sum(e - s for s, e in self.spans[mark:] if start <= s and e <= end)
        return end - start - sampling

    def scale(self, mark: int, raw_seconds: list[float]) -> list[float]:
        """Scale times measured since ``mark`` by the mean loop time of the
        samples taken since then and of the one before it."""
        factor = REFERENCE_S / statistics.fmean(self.loop_s[max(mark - 1, 0):])
        return [seconds * factor for seconds in raw_seconds]

    def slowness(self) -> float:
        """The machine's mean loop time over the reference: above 1 means
        it ran slower than the reference machine."""
        return statistics.fmean(self.loop_s) / REFERENCE_S
