"""The benchmark's clock in reference seconds.

On a shared VM the same Python code runs up to ~1.5x slower for minutes
at a time while other tenants load the physical cores, and the wall and
CPU time of the program move with it, from one run to the next, by more
than any regression bound worth having. So the timed phase is cut into
intervals (one operation each), a fixed reference kernel is timed at
every cut, and each interval is reported in reference seconds:

    reference seconds = measured seconds / factor
    factor = median kernel time of the last WINDOW cuts / REFERENCE_S

A change to the program moves the reported times exactly as it moves the
measured ones. A change in the host's speed moves the kernel's time too,
and cancels: over ten consecutive runs per workload, the spread of
jobs_per_s (quartile distance over median) was 0.21 as measured and
0.03 in reference seconds on tune_paper, 0.17 and 0.04 on fleet_cold.
The kernel runs in the benchmark process, so on fleet_cold it stands in
for the daemon's speed as well.
The kernel's own time is left out of every interval, and the measured
figures are printed beside the result.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

#: sets the scale of a reference second: about the kernel's time on the
#: 2-vCPU VM the baseline was recorded on (Python 3.11.7). Its level
#: differs a little between processes, which only rescales a workload.
REFERENCE_S = 0.002
KERNEL_REPEATS = 3
#: cuts the factor is the median of: one kernel time is noisy, while the
#: host's speed holds for seconds
WINDOW = 5


def _kernel() -> None:
    """Interpreter work like the program's: dict stores, tuple and str
    allocation."""
    d = {}
    for i in range(12000):
        d[i & 255] = (i, str(i & 15))


def kernel_time() -> float:
    """Median of a few kernel runs, so one preemption does not count."""
    times = []
    for _ in range(KERNEL_REPEATS):
        began = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


class HostClock:
    """Wall and CPU time of consecutive intervals, in reference seconds.

    ``cpu`` returns the CPU seconds of every process doing the work."""

    def __init__(self, cpu: Callable[[], float]) -> None:
        self.cpu = cpu
        self.factors: List[float] = []
        self.elapsed = self.cpu_s = 0.0
        self.raw_elapsed = self.raw_cpu_s = 0.0
        #: the factor the last closed interval was converted with
        self.factor = 1.0
        self._mark = None

    def tick(self) -> float:
        """Close the interval since the previous tick and return it in
        reference seconds (the first tick only opens one)."""
        wall, cpu = time.monotonic(), self.cpu()
        self.factors.append(kernel_time() / REFERENCE_S)
        interval = 0.0
        if self._mark is not None:
            self.factor = statistics.median(self.factors[-WINDOW:])
            raw_wall, raw_cpu = wall - self._mark[0], cpu - self._mark[1]
            interval = raw_wall / self.factor
            self.raw_elapsed += raw_wall
            self.raw_cpu_s += raw_cpu
            self.elapsed += interval
            self.cpu_s += raw_cpu / self.factor
        self._mark = (time.monotonic(), self.cpu())
        return interval

    def median_factor(self) -> float:
        return statistics.median(self.factors)
