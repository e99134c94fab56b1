"""Host speed, sampled inside the measured process, to normalize its times.

On a shared host the speed one process gets swings by half or more: the
same pass of the n = 32 suite took 2.2 s to 3.5 s within one minute on a
2-vCPU Xeon virtual machine, and a slow period can last minutes, longer
than a run.  No median over passes removes that.  So every pass runs a fixed reference
kernel from a timer signal, every ``SAMPLE_INTERVAL_S`` of wall time, in
the process being measured.  The kernel's duration tracks the speed the
program gets at that moment.

A measured interval is reported in *reference seconds*: its wall time,
minus the time the kernel itself took inside it, times the mean of
``REFERENCE_KERNEL_S / kernel duration`` over the samples taken during it
(and a few on each side).  Work W done at a varying speed s(t) takes
sum(dt) seconds; scaling each dt by s(t)/s_ref gives W / s_ref, which is
what the interval would have taken at the reference speed.  On the host
above this cut the spread of one pass from 14% to 3%.  Raw times are
printed next to the normalized ones.
"""

from __future__ import annotations

import bisect
import signal
import time

SAMPLE_INTERVAL_S = 0.05
#: duration of the reference kernel that defines one reference second;
#: about its duration in the fast periods of a 2-vCPU Xeon virtual machine
#: with Python 3.11
REFERENCE_KERNEL_S = 90e-6
#: samples taken on each side of an interval, beyond those inside it
SIDE_SAMPLES = 5


def reference_kernel() -> complex:
    """Fixed interpreter-bound work: complex and integer arithmetic in
    Python loops, like the package's moment loops.  Never change it: its
    duration defines the time scale."""
    a = complex(0.3, 0.2)
    total = 0j
    for i in range(20):
        p = 1.0 + 0.0j
        for k in range(24):
            p *= a
            total += (i + k) * p.conjugate() * 0.5
    return total


class HostSpeed:
    """Timer-driven sampler of the reference kernel in this process."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy_prefix = [0.0]
        self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:  # a slow host can fire the timer mid-sample
            self.sample()

    def sample(self) -> None:
        self._sampling = True
        try:
            t0 = time.perf_counter()
            reference_kernel()
            d = time.perf_counter() - t0
            self.starts.append(t0)
            self.durations.append(d)
            self._busy_prefix.append(self._busy_prefix[-1] + d)
        finally:
            self._sampling = False

    def busy(self, t0: float, t1: float) -> float:
        """Kernel time spent inside [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return self._busy_prefix[j] - self._busy_prefix[i]

    def scale(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_KERNEL_S / duration over the samples inside
        [t0, t1] and SIDE_SAMPLES on each side."""
        i = max(0, bisect.bisect_left(self.starts, t0) - SIDE_SAMPLES)
        j = min(len(self.starts), bisect.bisect_left(self.starts, t1) + SIDE_SAMPLES)
        window = self.durations[i:j] or self.durations
        return sum(REFERENCE_KERNEL_S / d for d in window) / len(window)

    def reference_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalized) duration of [t0, t1], kernel time excluded."""
        raw = (t1 - t0) - self.busy(t0, t1)
        return raw, raw * self.scale(t0, t1)
