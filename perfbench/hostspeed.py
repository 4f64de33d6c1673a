"""Host-speed probe: converts on-CPU time to time at a reference speed.

The benchmark shares a few cores of a host with other machines, and that
moves its times in two ways, neither of them the program's doing:

- the speed at which a core runs pure Python swings by up to about 1.5x
  within seconds (contention for the core's shared units and caches), which
  moves CPU time and wall time alike;
- the hypervisor takes the virtual CPU away for a varying share of wall time
  (steal time, 2-36% of a run), which moves wall time only.

So the benchmark times each op by the CPU time of the process and its
children, which leaves out steal, and converts that CPU time to a
reference speed. During an end-to-end run, an interval timer interrupts
the benchmark's one thread every ``INTERVAL_S`` and runs a fixed
pure-Python kernel that does not depend on the program. Its CPU time
samples the core's current speed. Probe time is subtracted from what the
program is charged, and each op's CPU time is scaled by the core's speed
over the op relative to ``REFERENCE_S``, a nominal kernel CPU time (between
program code the kernel takes about 2.5-3.2 ms on a 2-vCPU Xeon VM at
2.0 GHz, as the host's speed swings):

    time at reference speed = CPU time * REFERENCE_S / probe CPU time

averaged over the probes inside the op, or the ``NEAREST`` probes around it
when it is shorter than that. A program change moves the times by the same
factor with or without this scaling, because the kernel is fixed; the
scaling removes most of the host's share of the spread.
"""
from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.1
REFERENCE_S = 0.0025
NEAREST = 4

_TABLE = {k: (k * 2654435761) & 0xFF for k in range(64)}


def _step(acc: int, k: int) -> int:
    return (acc + _TABLE[k & 63]) ^ (k >> 2)


def _kernel() -> int:
    """A few milliseconds of interpreter work on a working set that fits
    in the first-level cache: calls, dict lookups, integer arithmetic."""
    acc, mask = 0, 0
    for k in range(6000):
        acc = _step(acc, k) % 1000003
        mask |= 1 << (acc & 31)
    return acc + mask


class Probe:
    """Samples the core's speed on a timer; ``cpu`` converts an op's time."""

    def __init__(self):
        self.starts: list[float] = []  # probe start times, increasing
        self.cpus: list[float] = []    # probe CPU durations
        self._previous = None
        self._running = False
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a stall let the timer fire inside a probe
            return
        self._sampling = True
        wall, cpu = time.perf_counter(), time.process_time()
        _kernel()
        self._sampling = False
        self.starts.append(wall)
        self.cpus.append(time.process_time() - cpu)

    def start(self) -> None:
        """Take a first sample, then one every ``INTERVAL_S``."""
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and take a last sample; later calls do nothing."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._sample(None, None)

    def _window(self, begin: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_right(self.starts, end)
        return lo, hi

    def factor(self, begin: float, end: float) -> float:
        """Reference-speed seconds per CPU second over wall times [begin, end]."""
        lo, hi = self._window(begin, end)
        count = len(self.starts)
        while hi - lo < min(NEAREST, count):
            # Widen towards whichever neighbour lies closer in time.
            before = begin - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < count else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return sum(REFERENCE_S / c for c in self.cpus[lo:hi]) / (hi - lo)

    def cpu(self, begin: float, end: float, cpu_s: float) -> float:
        """CPU time ``cpu_s`` used over wall times [begin, end], less
        probes, at reference speed."""
        lo, hi = self._window(begin, end)
        return (cpu_s - sum(self.cpus[lo:hi])) * self.factor(begin, end)
