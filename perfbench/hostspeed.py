"""Host speed, sampled beside the timed work, to correct timings for it.

Each vCPU of the shared host this benchmark was built on (2 vCPUs, Xeon at
2.1 GHz) runs a fixed pure-Python loop at a speed that wanders by up to 1.7
times: it switches between a fast and a slow speed from a tenth of a second
to twenty seconds at a time, the two CPUs nearly independently, and drifts
over minutes on top of that.  One run's wall-clock medians followed the
host: ten runs of the same code spread by up to 36% of their median.

HostSpeed times the loop (a spin) close to every timed item: on a signal
timer every SAMPLE_PERIOD_S while a single-threaded item runs, or on every
CPU, the thread pinned to each in turn, around a multi-threaded item.  An
item's corrected time is its wall time, less the spins inside it, times
REF_SPIN_S over the median spin within NEAR_S of the item: the time the item
would have taken had the loop run at its quiet speed on that host.  Items
and spins slow down alike, so the correction cancels the host's speed and
keeps the program's.  The spin allocates nothing the garbage collector
tracks and calls no package code, so the program under test cannot change
the spins it is divided by.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Optional

SPIN_LOOPS = 400
REF_SPIN_S = 9.3e-6  # the spin's quiet time on the host described above
SAMPLE_PERIOD_S = 0.005
NEAR_S = 0.01  # spins this close to an item also describe its host speed


def spin() -> float:
    """Seconds for SPIN_LOOPS turns of a fixed loop."""
    started = perf_counter()
    x = 0
    for i in range(SPIN_LOOPS):
        x ^= i
    return perf_counter() - started


class HostSpeed:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.at = array("d")  # perf_counter when each spin started, ascending
        self.spins = array("d")  # seconds per spin

    def _record(self) -> None:
        self.at.append(perf_counter())
        self.spins.append(spin())

    @contextmanager
    def sampling(self):
        """Spin every SAMPLE_PERIOD_S on the main thread while the block
        runs; the block must run no other thread."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._record())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probe_cpus(self) -> None:
        """Spin once on every CPU, by pinning this thread to each in turn."""
        allowed = os.sched_getaffinity(0)
        try:
            for cpu in self.cpus:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:
                    pass  # the spin then times whichever CPU the thread is on
                spin()  # the first spin on a CPU just moved to runs slow
                self._record()
        finally:
            os.sched_setaffinity(0, allowed)

    def correct(self, started: float, seconds: float) -> float:
        """The item's seconds at the host's quiet speed (see above)."""
        if not self.spins:
            return seconds
        at, spins = self.at, self.spins
        ended = started + seconds
        first, end = bisect.bisect_left(at, started), bisect.bisect_left(at, ended)
        inside = sum(spins[first:end])
        lo, hi = bisect.bisect_left(at, started - NEAR_S), bisect.bisect_left(at, ended + NEAR_S)
        if lo == hi:  # no spin near the item: take the closest one
            lo = min(range(max(first - 1, 0), min(first + 1, len(at))),
                     key=lambda i: abs(at[i] - started))
            hi = lo + 1
        return (seconds - inside) * REF_SPIN_S / statistics.median(spins[lo:hi])


def sampling(speed: Optional[HostSpeed]):
    """speed.sampling(), or nothing when there is no speed to sample."""
    return speed.sampling() if speed is not None else nullcontext()
