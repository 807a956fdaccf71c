"""Machine-speed reference for timing on a shared host.

On a host shared with other tenants the speed at which this process runs
drifts by tens of percent over seconds, for reasons outside the process.
The benchmark therefore runs a short, fixed burst of pure-Python work (the
same kind of work as the library: ``Fraction`` and integer arithmetic, dict
traffic) every 100 ms of a run and after every long operation, and scales each
measured time by
``REFERENCE_S / (burst time near it)``.  Reported times are thus times at a
nominal speed, at which one burst takes ``REFERENCE_S``; the raw times are
kept next to them in the results file.  The burst uses nothing from
troplectra, so a change to the library does not move it.  Set-up time is
not scaled (see ``run.measure_setup``).
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.002
EVERY_S = 0.1
# An op at least this long is followed at once by a burst, so that it is
# bracketed by two.
LONG_OP_S = 0.02
WINDOW_S = 0.5


def burst() -> float:
    """Run the fixed reference work once; return its wall time."""
    start = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    return time.perf_counter() - start


class SpeedLog:
    """Reference bursts taken during a run, and the scale factors they give."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            now = time.perf_counter()
            self.times.append(now)
            self.durations.append(burst())
        self._next = time.perf_counter() + EVERY_S

    def maybe_probe(self, last_op_s: float = 0.0) -> None:
        if last_op_s >= LONG_OP_S or time.perf_counter() >= self._next:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured in [start, end]: bursts within
        ``WINDOW_S`` of it, or else the three nearest."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            mid = bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.durations)

    def summary(self) -> dict:
        return {
            "bursts": len(self.durations),
            "burst_median_s": statistics.median(self.durations),
            "burst_min_s": min(self.durations),
            "burst_max_s": max(self.durations),
            "burst_total_s": sum(self.durations),
        }
