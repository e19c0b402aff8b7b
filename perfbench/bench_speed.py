"""Machine-speed probe for the end-to-end timings.

This benchmark runs on shared machines whose speed drifts by up to half
again over tens of seconds, as other tenants come and go.  The probe samples
that speed while the jobs run: every PERIOD_S seconds a SIGALRM handler
times a fixed pure-Python reference loop (Fraction and big-integer
arithmetic, like the engine's own work).  A job's reference-speed time is
its measured time scaled by REFERENCE_S over the mean loop time sampled
within WINDOW_S of the job.  The probe's own time is excluded from the job's
measured time.  Set-up time, too short for the timer, is scaled by loops run
right after it.

The loop does not touch the engine, so no change to the engine can move
it; it only cancels the machine's drift out of the comparison.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
WINDOW_S = 1.0
# about the reference loop's time on a quiet 2-core Xeon (2.1 GHz) with
# Python 3.11; a constant, so it only sets the unit of the scaled times
REFERENCE_S = 0.0025
_MODULUS = 7 ** 300


def reference_loop() -> Fraction:
    total = Fraction(0)
    for _ in range(10):
        acc = Fraction(0)
        x = 3 ** 200
        for i in range(1, 120):
            acc += Fraction(i % 97 + 1, i % 1000 + 1)
            x = (x * 12345 + i) % _MODULUS
        total += acc + x
    return total


def scale_now(samples: int = 5) -> float:
    """REFERENCE_S over the median of `samples` reference loops run now:
    the factor for a time measured just before the call."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class SpeedProbe:
    """Context manager sampling the reference loop while jobs run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time, loop seconds)
        self.spent = 0.0                                 # total probe seconds
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start

    def __enter__(self) -> SpeedProbe:
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time sampled within WINDOW_S
        of [start, end]: the factor that turns a measured time into a
        reference-speed time."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near or [s for _, s in self.samples])
