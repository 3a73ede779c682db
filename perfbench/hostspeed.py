"""Host-speed calibration: scale measured host seconds to a reference speed.

The benchmark's host is a small VM on a shared machine.  Its speed on
pure-Python code moves between levels up to about 1.8x apart, each held
for seconds to minutes, with CPU time tracking wall time (so it is not
time lost to the scheduler).  Two runs of the same code at different
levels disagree by far more than any useful bound.

So the benchmark samples the host's speed while it measures: a short
fixed pure-Python loop, the calibration, runs before and after every
timed op and, from a timer signal, every :data:`INTERVAL_S` inside it.
The calibration is not program code; it does the same work in every
version of the program.  The host time between two samples is scaled by
``REFERENCE_S`` over the mean of the two samples, and an op's reference
time is the sum over its segments: the seconds the op would take on a
host that runs the calibration in ``REFERENCE_S``.  A change that makes
the program slower makes the reference time larger by the same share; a
change of host level moves the calibration as well and cancels.  The
calibrations' own time is left out of both the host and reference times.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

#: Seconds one calibration takes at the reference speed (the faster
#: level of a 2-vCPU Xeon VM at 2.0 GHz).
REFERENCE_S = 0.0040
#: Size of one calibration: entries in its table and reads from it.
SIZE = 5_000
#: Modulus of the calibration's table keys, a prime above ``SIZE``.
_KEYS = 100_003
#: Host seconds between samples inside an op.  Shorter intervals track
#: the host's changes of level more closely; one sample costs about 8%
#: of the interval.
INTERVAL_S = 0.05


def _loop(size: int) -> float:
    """Simulator-like host work with a working set of a few hundred KiB: a
    dict keyed by scattered ints holding small tuples, strided reads
    from a float list, and short-lived tuples and strings."""
    table = {}
    for i in range(size):
        table[(i * 7919) % _KEYS] = (i, i + 1.0)
    values = [float(i) for i in range(size)]
    total = 0.0
    for i in range(size):
        total += values[(i * 4099) % size] + table[(i * 7919) % _KEYS][1]
    rows = [(i, float(i), str(i)) for i in range(size // 2)]
    return total + len(rows)


class HostSpeed:
    """Calibration samples, and the reference time of the work between."""

    def __init__(self) -> None:
        self.samples = []
        _loop(SIZE)  # warm the loop's code and allocator before timing it
        self._mark = 0.0
        self._host = self._reference = 0.0

    def sample(self) -> float:
        """Run one calibration; returns its host seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _loop(SIZE)
            seconds = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor from host seconds to reference seconds for work done
        between two samples."""
        return REFERENCE_S / ((before + after) / 2.0)

    def _segment(self) -> None:
        """Close the segment that started at the last mark with a sample."""
        host = perf_counter() - self._mark
        before = self.samples[-1]
        after = self.sample()
        self._host += host
        self._reference += host * self.scale(before, after)
        self._mark = perf_counter()

    def _on_timer(self, signum, frame) -> None:
        self._segment()

    def time(self, work):
        """Run ``work()`` sampled throughout: returns (its result, host
        seconds, reference seconds)."""
        if not self.samples:
            self.sample()
        self._host = self._reference = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._segment()
        return result, self._host, self._reference
