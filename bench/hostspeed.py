"""Host-speed probes: times scaled to a reference speed of the host.

The machines this benchmark runs on share their cores with other
tenants, and their speed changes by up to twofold, in phases that last
from seconds to minutes.  A wall-clock time then follows the host more
than the program.  So while an untraced run measures, a real-time
interval timer interrupts the program every ``INTERVAL`` seconds and
runs a small fixed probe, in turn one of two kinds: a loop of integer
arithmetic, and a loop of small function calls, tuple unpacking and set
inserts.  Both keep their data in the L1 cache, so their durations
depend on the host's speed and not on what the program left in the
caches.  A probe's *factor* is its reference duration divided by the
duration it took.

A timed interval of the program is reported as its seconds, less the
probe time inside it, times the median factor of the probes that
started within ``WINDOW`` seconds of it: the seconds it would have
taken with the host at the reference speed.  On the host the benchmark
was written on, over 15-28 repeated passes of one seed, this cut the
spread (interquartile range over median) of the pass time from 0.22 to
0.04 on trace-grid, from 0.30 to 0.07 on stream-n8 and from 0.14 to
0.05 on sweep-n7.  Either kind alone did worse (0.06-0.15), because
the slow phases do not slow every kind of code alike.

Probes that read a 5 MB dict or an 8 MB buffer were tried and left out:
they reacted to slow phases far more than the program did, and ran two
to three times faster whenever the program had left their data in the
cache, so their factor followed the program as well as the host.

The probes take about 1.5 % of the run, which the subtraction takes out.
The timer's handler runs between bytecodes of the main thread; a long
call into C (numpy) delays the probe until it returns.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL = 0.01
WINDOW = 0.25
MIN_PROBES = 12  # a shorter window is widened to this many probes
PAIRS = [(i, i + 1) for i in range(800)]


def arithmetic() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


def _note(value: int, seen: set) -> int:
    seen.add(value & 255)
    return len(seen)


def calls() -> int:
    seen: set[int] = set()
    total = 0
    for a, b in PAIRS:
        total += _note(a ^ b, seen)
    return total


# Each probe with the seconds it takes at the reference speed: its
# duration in a fast phase of a 2-vCPU Intel Xeon (model 143) KVM guest,
# Python 3.11.7.  These fix the unit of the scaled times, so they must
# stay the same between the runs that are compared.
PROBES = ((arithmetic, 1.3e-4), (calls, 0.95e-4))


class HostSpeed:
    """Runs the probes on a timer and scales intervals by what they saw."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.factors: list[float] = []
        self._turn = 0
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        probe, reference = PROBES[self._turn % len(PROBES)]
        self._turn += 1
        started = perf_counter()
        probe()
        took = perf_counter() - started
        self.starts.append(started)
        self.durations.append(took)
        self.factors.append(reference / took)
        self._busy = False

    def start(self) -> None:
        for probe, _ in PROBES:  # first runs outside any timed interval
            probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 (perf_counter), less the probes run
        inside, at the reference speed.  Call it once the probes after t1
        have run, that is, after the pass that holds the interval."""
        inside = slice(bisect_left(self.starts, t0), bisect_left(self.starts, t1))
        net = t1 - t0 - sum(self.durations[inside])
        lo = bisect_left(self.starts, t0 - WINDOW)
        hi = bisect_left(self.starts, t1 + WINDOW)
        if hi - lo < MIN_PROBES:  # the probes nearest the interval's middle
            middle = bisect_left(self.starts, (t0 + t1) / 2)
            hi = min(len(self.factors), max(middle + MIN_PROBES // 2, MIN_PROBES))
            lo = max(0, hi - MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("no host-speed probe has run")
        return net * statistics.median(self.factors[lo:hi])
