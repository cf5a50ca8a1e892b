"""Normalising wall-clock time for the speed of a shared machine.

On a machine shared with other tenants the speed of one core drifts by
20% or more within seconds, so that the same session takes 3.7 s in one
minute and 5.6 s in the next. `SpeedProbe` samples the speed while an
operation runs: a timer signal every PERIOD_S seconds runs a fixed loop of
127-bit modular multiplications, the operation's kind of work, and times
it. An operation's normalised time is its wall time multiplied by the mean
speed seen during it, where speed 1 is the loop taking NOMINAL_PROBE_S:
the seconds the operation would have taken at nominal speed.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
PROBE_STEPS = 1000
# Median time of one probe on the machine the bounds were set on (2-core
# Intel Xeon, Python 3.11.7); it fixes the unit, not the comparison.
NOMINAL_PROBE_S = 0.00045

_Q = (1 << 127) - 1


def _probe() -> float:
    a = 3
    t0 = time.perf_counter()
    for i in range(PROBE_STEPS):
        a = (a * a + i) % _Q
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed on a timer signal while active."""

    def __init__(self):
        self.speeds: list[float] = []

    def _on_alarm(self, signum, frame):
        self.speeds.append(NOMINAL_PROBE_S / _probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_speed(self, since: int) -> float:
        """Mean speed of the samples from index since on (the latest sample
        if none was taken since)."""
        seen = self.speeds[since:] or self.speeds[-1:] or [1.0]
        return sum(seen) / len(seen)
