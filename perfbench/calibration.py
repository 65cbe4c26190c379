"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose speed drifts by up to
±25% over seconds to minutes, for every process alike: a fixed pure-Python
loop and a freeqg operation slow down and speed up together.  Raw timings
therefore follow the machine as much as the program.

A short fixed kernel, exact elimination over `fractions.Fraction` plus dict
and tuple churn (the kinds of work freeqg does), is timed right before, right
after and every 0.1 s during every timed operation and set-up.  Its mean
time, against REFERENCE_S, gives the machine's speed while the block ran, and
the timed metrics report each duration rescaled to the reference speed:

    reference seconds = measured seconds * REFERENCE_S / mean kernel seconds

The kernel uses only the standard library, so no change to freeqg can move
it; a slower program still reads slower, a slower machine does not.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# kernel time that defines the reference speed; about the median of one
# kernel call on a 2-CPU Intel Xeon VM with Python 3.11
REFERENCE_S = 0.003
# kernel calls before and after a timed block, and the time between kernel
# calls inside it
EDGE_CALLS = 2
INTERVAL_S = 0.1

_SIZE = 10
_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randrange(-9, 10)) for _ in range(_SIZE)] for _ in range(_SIZE)]


def _kernel() -> None:
    m = [row[:] for row in _MATRIX]
    for c in range(_SIZE):
        p = next(i for i in range(c, _SIZE) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        for i in range(c + 1, _SIZE):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i


def kernel_seconds() -> float:
    """Time of one kernel call."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Timed:
    """Times a block of code and the machine's speed while it runs.

    The kernel is timed on entry, on exit, and every INTERVAL_S in between
    from a SIGALRM handler, so that a block lasting seconds is rescaled by
    the speed the machine had while it ran, not only at its edges.  The
    handler's own time is taken out of the block's.  With ticks=False only
    the edges are sampled, for blocks that must run uninterrupted.

        with Timed() as t:
            work()
        t.seconds, t.ref_seconds
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks

    def __enter__(self) -> "Timed":
        self.samples = [kernel_seconds() for _ in range(EDGE_CALLS)]
        self.handler_s = 0.0
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel_seconds())
        self.handler_s += perf_counter() - t0

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._t0
        if self.ticks:
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self.handler_s
        self.samples += [kernel_seconds() for _ in range(EDGE_CALLS)]
        self.ref_seconds = self.seconds * REFERENCE_S / statistics.fmean(self.samples)
