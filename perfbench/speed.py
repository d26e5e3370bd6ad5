"""Correction of op times for the CPU speed of a shared machine.

Other tenants of a shared machine slow its CPU by up to about 1.8x, in
stretches from a tenth of a second to minutes, so a whole run can land in
a slow stretch and no statistic of raw times is steady from run to run.
While ops are timed, a fixed piece of Fraction arithmetic (the probe) runs
every ``PROBE_INTERVAL_S`` from a SIGALRM handler in the same thread.  Its
duration tracks the slowdown of the package's own ops: on a 2-core x86
machine, stretches where the probe ran 1.4x, 1.6x and 1.8x slower than at
its fastest slowed a battery case 1.6x, 1.76x and 1.76x.

An op's time is scaled by the mean of ``REFERENCE_S / d`` over the probe
durations ``d`` around it, after removing the probes' own time inside it.
The result is the op's time at the speed of an uncontended core, taken as
the speed at which the probe lasts ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

# Probe duration on an uncontended core (5th percentile over 20 s on the
# 2-core x86 machine the benchmark was written on, Python 3.11).
REFERENCE_S = 0.000262
PROBE_INTERVAL_S = 0.02
# Probes this far before the start and after the end of an op count for it.
WINDOW_S = 0.05


def probe() -> float:
    """Duration of a fixed piece of Fraction arithmetic, garbage collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        s = Fraction(0)
        for i in range(1, 150):
            s += Fraction(1, i % 13 + 1)
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def speed_factor(samples: int = 5) -> float:
    """REFERENCE_S over the median of a few probes run now."""
    durations = sorted(probe() for _ in range(samples))
    return REFERENCE_S / durations[samples // 2]


class SpeedLog:
    """Runs the probe on a timer while installed and corrects op times."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.starts.append(perf_counter())
        self.durations.append(probe())

    def __enter__(self) -> "SpeedLog":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_factor(self) -> float:
        """Mean of ``REFERENCE_S / d`` over every probe of the pass."""
        if not self.durations:
            return 1.0
        return sum(REFERENCE_S / d for d in self.durations) / len(self.durations)

    def corrected(self, t0: float, t1: float) -> float:
        """Time of the op that ran from t0 to t1, at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:  # no probe near the op: use every probe of the pass
            lo, hi = 0, len(self.durations)
        near = self.durations[lo:hi]
        if not near:
            return t1 - t0
        inside = sum(
            d for s, d in zip(self.starts[lo:hi], near) if t0 <= s < t1
        )
        factor = sum(REFERENCE_S / d for d in near) / len(near)
        return (t1 - t0 - inside) * factor
