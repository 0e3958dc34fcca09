"""Calibration: a fixed piece of reference work timed around every operation.

The machine this benchmark was tuned on changes speed from one moment to the
next (a fixed loop varies by about 25% between runs, and by several percent
between neighbouring 100 ms windows).  Each operation's time is therefore
divided by the mean time of a fixed reference snippet sampled just before,
during and just after it.  Samples during the operation come from a SIGALRM
interval timer, so slow-downs shorter than one operation are seen too; their
duration is subtracted from the operation's time.

The reference work is plain Python and small-array numpy, the mix the
library spends its time in.  It never calls ``narrowops``, so no change to
the library can move it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

_REF = np.linspace(-1.0, 1.0, 96).reshape(3, 32)
_ONES = np.ones(32)

SAMPLE_INTERVAL_S = 0.02
SAMPLES_AROUND = 2
# Typical duration of one sample on the 2-core Xeon sandbox the benchmark was
# tuned on; converts calibration units back to seconds at that speed.
REFERENCE_SAMPLE_S = 4.6e-4


def reference_work() -> float:
    """Run the fixed reference snippet once and return its duration in s."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(800):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    vals = tuple(int(v) for v in table.values())
    a = _REF
    for _ in range(40):
        y = a @ _ONES
        a = np.abs(a - y.max() * 1e-3)
    if acc + len(vals) + a[0, 0] < 0:  # consume the results
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    """One operation's own time and the mean calibration sample around it."""

    net_s: float
    cal_s: float

    @property
    def cal_units(self) -> float:
        return self.net_s / self.cal_s


class Calibrator:
    """Times calls in calibration units; keeps every calibration sample."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._inside: list[float] = []
        self._active = False

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._inside.append(reference_work())

    def time(self, fn):
        """Call ``fn()`` and return ``(result, Timing)``."""
        before = [reference_work() for _ in range(SAMPLES_AROUND)]
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            self._active = True
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            # a sample that fires after the clock stopped must not be
            # subtracted from the operation's time
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = self._inside
        after = [reference_work() for _ in range(SAMPLES_AROUND)]
        cal = before + inside + after
        self.samples.extend(cal)
        return result, Timing(net_s=wall - sum(inside), cal_s=sum(cal) / len(cal))
