"""Reference-speed timing: a fixed calibrator and the conversion it drives.

The machines this benchmark runs on change speed while it runs: the
same fixed checking loop has been seen to slow by half within twenty
seconds and recover later, with process CPU time tracking wall time,
so the drift is slower execution per cycle, not scheduling.  The
benchmark therefore times a fixed calibrator between requests, outside
every timed window, and converts each request's CPU-executed time to
what it would have been when the calibrator takes
:data:`NOMINAL_CAL_MS`:

    reference = cpu * (NOMINAL_CAL_MS / calibrator) + (wall - cpu)

Only CPU-executed time is scaled; time the request spent waiting on a
timer or a socket (``wall - cpu``) is reported as measured.

The calibrator shares no code with the program under test: it is scipy
``solve_ivp`` on a fixed 3x3 linear ODE, timed with
``time.thread_time`` so that the program's own threads cannot slow it
down and so hide their cost.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

#: Calibrator reading (ms of thread CPU time) that defines reference
#: speed.  A constant: changing it rescales every reported timing.
NOMINAL_CAL_MS = 6.5

#: Seconds of run time per calibrator reading.
CADENCE_S = 0.2

#: Readings this close to a sample (either side) convert it.
WINDOW_S = 2.5

_A = np.array([[-1.0, 0.7, 0.3], [0.2, -0.5, 0.3], [0.4, 0.6, -1.0]])
_Y0 = np.array([1.0, 0.0, 0.0])


def _rhs(t, y):
    return _A @ y


def calibrator_ms() -> float:
    """Thread CPU time of one fixed ODE solve, in milliseconds."""
    start = time.thread_time()
    solve_ivp(_rhs, (0.0, 15.0), _Y0, method="RK45", rtol=1e-9, atol=1e-12)
    return (time.thread_time() - start) * 1e3


class Calibration:
    """Calibrator readings at a fixed cadence of one per :data:`CADENCE_S`.

    Readings can only be taken between requests, so after a long
    request the readings it held up are taken together.  The speed of
    this class of machine flips between a fast and a slow state within a
    fraction of a second, too fast for a reading next to a request to
    say how fast that request ran; what a reading can follow is the
    slower drift.  So a sample is converted with the mean of every
    reading within :data:`WINDOW_S` of it.
    """

    def __init__(self):
        self.times: "list[float]" = []
        self.readings: "list[float]" = []
        self._due = 0.0

    def sample(self, count: int = 1) -> "list[float]":
        """Take ``count`` readings now."""
        batch = [calibrator_ms() for _ in range(count)]
        now = time.perf_counter()
        self.times += [now] * count
        self.readings += batch
        self._due = now + CADENCE_S
        return batch

    def maybe_sample(self, force: bool = False) -> None:
        """Take the readings the cadence says are due (at least one if
        ``force``)."""
        owed = (time.perf_counter() - self._due) / CADENCE_S
        if owed >= 0 or force:
            self.sample(1 + max(0, int(owed)))

    def around(self, start: float, end: float) -> float:
        """Mean reading within :data:`WINDOW_S` of ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no reading that close: the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.fmean(self.readings[lo:hi])


def reference_seconds(wall: float, cpu: float, cal_ms: float) -> float:
    """One timed window at reference speed (see the module docstring)."""
    return cpu * (NOMINAL_CAL_MS / cal_ms) + (wall - cpu)
