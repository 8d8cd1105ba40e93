"""Calibration loop that scales every end-to-end timing to a nominal host speed.

The benchmark host is shared.  Other load on it slows every Python process by
up to 2x, for seconds to minutes at a time: a fixed Fraction loop measured
10 ms and 20 ms in alternating stretches of a 90 s trace, and the median of
one workload moved by 30% between two runs minutes apart.  So each timing is
multiplied by NOMINAL_S / (this loop's time measured next to it, in the same
process).  A change to the program moves the scaled timings; a change in
other load slows the loop as well and cancels out.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The loop's fastest time on an idle 2-vCPU 2.1 GHz Xeon under Python 3.11,
# so scaled timings read as seconds on that host.
NOMINAL_S = 0.003
# A timing uses the loop's most recent measurement if it is younger than this.
EVERY_S = 0.1


def loop_seconds() -> float:
    """Time one run of the fixed loop of small-integer Fraction arithmetic."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
    return perf_counter() - start


class Calibration:
    """Scale factor to nominal seconds, re-measured at most every EVERY_S."""

    def __init__(self) -> None:
        self._measured_at = float("-inf")
        self._loop_s = NOMINAL_S

    def scale(self) -> float:
        if perf_counter() - self._measured_at >= EVERY_S:
            self._loop_s = loop_seconds()
            self._measured_at = perf_counter()
        return NOMINAL_S / self._loop_s
