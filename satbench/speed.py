"""Machine-speed probe: a fixed reference kernel, sampled from a timer signal.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes.  While a probe is active, a SIGALRM handler runs
``reference_kernel`` every ``EVERY_S`` of wall time, in the main thread and
between bytecodes, so the machine's speed is sampled during long ops too.
Each sample gives a factor ``NOMINAL_S / kernel time``; multiplying a
measured time by the factors of the samples taken during it gives seconds
on a machine where the kernel takes exactly ``NOMINAL_S``.  ``spent`` is the
time the samples took, which callers leave out of what they time.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from statistics import fmean

EVERY_S = 0.05
NOMINAL_S = 0.001


def reference_kernel() -> int:
    """Fixed integer work; it allocates nothing the garbage collector tracks."""
    acc = 0
    x = 0x9E3779B97F4A7C15
    for _ in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc |= 1 << (x % 211)
        acc ^= acc >> 5
    return acc


class SpeedProbe:
    """Samples the reference kernel on entry, every EVERY_S, and on exit."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append(NOMINAL_S / (t1 - t0))
        self.spent += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        # one-shot timer, re-armed after the sample, so samples never nest
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """Mean factor of the samples started in [t0, t1], else of the two around it."""
        i = bisect_left(self.starts, t0)
        j = bisect_right(self.starts, t1)
        if i < j:
            return fmean(self.factors[i:j])
        return fmean(self.factors[max(i - 1, 0) : i + 1])
