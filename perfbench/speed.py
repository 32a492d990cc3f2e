"""Rescale measured times to a fixed reference CPU speed.

On a shared machine the speed a process gets swings by tens of percent
within seconds: a fixed pure-Python loop was measured taking from 0.27 s
to 0.35 s in consecutive runs on an otherwise idle 2-core VM, and whole
runs of the same workload moved by 20-30%.  Those swings hit the probe
kernel below and the library alike, so the worker runs the kernel every
``PERIOD_S`` seconds from a timer signal (between bytecodes of whatever
is running) and rescales each measured interval by the kernel's local
speed:

    rescaled = (measured - time spent in probes) * NOMINAL_NS / median probe time

where the median is over the probes that ran inside the interval plus the
two nearest on each side, so one probe that was preempted does not move the
operations around it.  A rescaled time is in seconds at the speed at which
the kernel takes ``NOMINAL_NS``.

The kernel runs with the cyclic garbage collector off, so a collection that
its allocations make due falls on the library code that runs next, and the
size of the library's heap does not enter the probe's time.  The kernel
uses no ``weylwords`` code, but it shares the CPU caches and the allocator
with the library: a change to the library's memory footprint can move it a
little.  The worker keeps the raw times beside the rescaled ones so that
such a move can be seen.

Process or thread CPU time is no substitute: on the VM the benchmark was
written on it tracked wall time within 0.5% in every round, and its spread
over rounds of identical work was the wall time's (see the README).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter_ns

# The probe kernel's time at the reference speed.  On the 2-core Xeon VM
# (Python 3.11.7) where the benchmark was written it took 0.8-1.2 ms.
NOMINAL_NS = 1_000_000
PERIOD_S = 0.02


def kernel() -> int:
    """Fixed interpreter work: small tuples, a dict, integer arithmetic."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + i
    return len(table)


class Probe:
    """Runs the kernel from SIGALRM every PERIOD_S and keeps its timings."""

    def __init__(self):
        self.starts: list[int] = []
        self.durations: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        kernel()
        spent = perf_counter_ns() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.durations.append(spent)
        self.spent_ns += spent

    def __enter__(self) -> "Probe":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def rescale(self, begin: int, end: int, inside: int) -> float:
        """Rescaled nanoseconds of the interval [begin, end], of which
        ``inside`` ns were spent in probes."""
        lo = max(0, bisect.bisect_left(self.starts, begin) - 2)
        hi = bisect.bisect_right(self.starts, end) + 2
        return (end - begin - inside) * NOMINAL_NS / statistics.median(self.durations[lo:hi])
