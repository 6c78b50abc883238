"""Host-speed probe: how fast this host runs a fixed reference loop,
moment by moment.

On a shared host the same Python code runs up to about 1.6 times slower
while neighbours load the machine, and the loaded and idle stretches
last seconds, so raw timings of identical work spread by a third from
run to run.  The probe runs a small, fixed pure-Python loop every few
milliseconds next to the workload and records how long it took.  A
stretch of the workload's time is then scaled by the probe's slowdown
over that stretch (its smoothed time over :data:`NOMINAL_S`), which
gives the time the work would have taken at the host's nominal speed.

A change to the simulator slows the workload but not the probe, so it
shows in full; only the host's varying speed is divided out.

Two ways to sample:

* :meth:`HostProbe.cpu_timer`: a ``SIGPROF`` interval timer runs the
  loop inside the workload's own (main) thread every
  :data:`INTERVAL_S` of CPU time; the probe's own time is then
  subtracted from the intervals it falls in (``own=True``).
* :meth:`HostProbe.sample`, called by a thread that otherwise waits
  (the serving workload's main thread), for multi-threaded work.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Iterator, List

#: CPU seconds between samples.
INTERVAL_S = 0.005
#: The reference loop's time at nominal host speed: its fast-state time
#: on a 2-vCPU x86-64 VM with Python 3.11.  It only sets the scale of
#: the normalised figures; runs compare because it never changes.
NOMINAL_S = 60e-6
#: Samples in the running median that smooths the slowdown.
SMOOTH = 5


def _reference(rounds: int = 200) -> int:
    """The fixed probe work: integer arithmetic, dict and list
    traffic and calls, like the simulators' inner loops."""
    table: dict = {}
    slots = [0] * 64
    acc = 0
    for i in range(rounds):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
        slots[i & 63] += table.get(i & 255, 1)
        acc ^= len(slots)
    return acc


class HostProbe:
    """Probe samples: wall time at each sample's end and its duration."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self._slowdown: List[float] = []

    def sample(self) -> None:
        c0 = time.thread_time()
        _reference()
        took = time.thread_time() - c0
        self.at.append(time.perf_counter())
        self.took.append(took)

    @contextlib.contextmanager
    def cpu_timer(self) -> Iterator["HostProbe"]:
        """Sample inside the main thread every :data:`INTERVAL_S` of
        process CPU time while the block runs."""
        previous = signal.signal(signal.SIGPROF,
                                 lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def slowdown(self, k: int) -> float:
        """Smoothed slowdown at sample ``k`` (1.0 = nominal speed)."""
        if len(self._slowdown) != len(self.took):
            half = SMOOTH // 2
            took = self.took
            self._slowdown = [
                statistics.median(took[max(0, i - half):i + half + 1])
                / NOMINAL_S
                for i in range(len(took))
            ]
        return self._slowdown[k]

    def normalise(self, w0: float, w1: float, own: bool = True) -> float:
        """Seconds the wall interval ``[w0, w1]`` would have taken at
        nominal host speed.  With ``own``, samples taken inside the
        interval ran in the measured thread and their time is left out.
        """
        at = self.at
        if not at:
            raise RuntimeError("host probe took no samples")
        lo = bisect.bisect_right(at, w0)
        hi = bisect.bisect_right(at, w1)
        total, prev = 0.0, w0
        for k in range(lo, hi):
            seg = at[k] - prev - (self.took[k] if own else 0.0)
            total += max(seg, 0.0) / self.slowdown(k)
            prev = at[k]
        return total + (w1 - prev) / self.slowdown(min(hi, len(at) - 1))

    def median_slowdown(self) -> float:
        return statistics.median(self.took) / NOMINAL_S if self.took else 0.0
