"""Host speed, sampled with a fixed reference computation.

On a shared host the speed of a virtual CPU drifts by tens of percent over
seconds to minutes, whatever the program does; CPU time drifts with it, so
medians over passes cannot remove the drift between runs.  While jobs run,
a timer interrupts the benchmark every ``PERIOD_S`` seconds and times
``reference()``, which is pure Python and big-integer work that no change to
padicdisc can affect; the set-up probe samples it just before and after its
import.  A measured time t over [start, end] is reported as

    t * NOMINAL_S * mean(1 / d),  d the reference times sampled within WINDOW_S

Samples are evenly spaced in time, so mean(1/d) is the host's mean speed over
the interval, and the product is the time the same work takes on a host
where the reference takes ``NOMINAL_S``.  A sample slowed by an interrupt has
a speed near 0 and cannot dominate the mean.  The samples' own cost, about 2%
of every job, is part of t.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

PERIOD_S = 0.1
WINDOW_S = 0.3
NOMINAL_S = 0.002

_MODULUS = (1 << 1279) - 1


def reference() -> int:
    acc = 1
    for i in range(2000):
        acc = (acc * 0x9E3779B97F4A7C15 + i) % _MODULUS
        acc ^= i << 7
    return acc


class HostClock:
    """Reference-time samples of one run, and the scale they give."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    @contextmanager
    def ticking(self):
        """Sample on a timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S times the mean reference speed sampled near [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return scale_of(self.durations[lo:hi])


def scale_of(durations) -> float:
    return NOMINAL_S * sum(1 / d for d in durations) / len(durations)
