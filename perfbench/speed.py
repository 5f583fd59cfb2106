"""Host-speed reference for the benchmark's timings.

On a shared host the same Python work takes up to a quarter more or less
time from one second to the next, and the two vCPUs drift independently,
so neither longer runs nor a probe on the other core steady the figures.
Instead a timer signal interrupts the benchmark's own thread every
INTERVAL_S and runs a short fixed probe, which does not touch the program,
on the same vCPU.  An operation's time is its wall time less the probes
that ran inside it, divided by the host speed the probes saw around it:
seconds at the probe's nominal speed.  Work the program does shows in
full; the host's drift mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0004   # the probe's duration at this host's typical speed
INTERVAL_S = 0.02    # one probe per interval of wall time
WINDOW_S = 0.5       # probes this close to an interval describe its speed


def reference_work(n: int = 300) -> int:
    """Dict, tuple, integer and Fraction work, as the program does."""
    table = {}
    total = Fraction(0)
    for i in range(1, n):
        key = (i % 37, i % 101, i * 7 % 13)
        table[key] = table.get(key, 0) + i * i % 97
        if i % 4 == 0:
            total += Fraction(i % 89 + 1, i % 23 + 1)
    return len(table) + total.denominator


class SpeedProbe:
    """Probes on a wall-clock timer signal, from start() until stop()."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def sample(self, _signum=None, _frame=None):
        """Run one probe (also the timer signal's handler)."""
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Wall time start..end without probes, at the probe's nominal speed.

        Probes come at even wall-time steps, so the work done in the interval
        is proportional to the mean of 1/duration over the probes inside it;
        an interval too short to hold a probe takes the probes around it.
        """
        inside = [(s, e) for s, e in zip(self.starts, self.ends) if start <= s and e <= end]
        near = inside or [(s, e) for s, e in zip(self.starts, self.ends)
                          if start - WINDOW_S <= s and e <= end + WINDOW_S]
        if not near:
            raise RuntimeError("no speed probe near a timed interval")
        net = end - start - sum(e - s for s, e in inside)
        return net * NOMINAL_S * statistics.fmean(1 / (e - s) for s, e in near)
