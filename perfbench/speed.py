"""Scale measured spans to a reference machine speed.

On a shared host the same Python code runs up to about 2x slower for seconds
to minutes at a time, in CPU time as much as in wall time, because neighbours
load the physical core.  Averaging does not remove that: the share of a run
spent in the slow state varies from run to run.  So while timed work runs, a
timer signal runs a fixed probe loop every ``INTERVAL_S``.  A span's time,
net of the probes that ran inside it, is divided by the probe's slowdown
around the span: the running median of probe time over
``REFERENCE_PROBE_S``.  A slower library shows as more scaled time; a slower
host does not.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from statistics import median
from time import perf_counter

INTERVAL_S = 0.02
# The probe loop's time on a 2-core Intel Xeon virtual machine (Python 3.11.7)
# in its fast state: the 5th percentile of two minutes of probes.
REFERENCE_PROBE_S = 0.00026

_MODULUS = (1 << 521) - 1
_START = 3 ** 300


class _Item:
    __slots__ = ("rank", "key", "label")

    def __init__(self, rank, key, label):
        self.rank, self.key, self.label = rank, key, label


def probe_loop():
    """Fixed work of the library's kinds, in proportions that track it.

    About a third of the time goes to exact rationals and big integers, the
    rest to small objects, tuples, dicts and a sort: interpreted code of
    that kind slows more than integer arithmetic when the host is loaded.
    """
    acc = Fraction(0)
    for i in range(1, 13):
        acc += Fraction(i, i + 7)
    x = _START
    for i in range(60):
        x = (x * x + i) % _MODULUS
    table = {}
    for item in [_Item(i, (i, i + 1), str(i)) for i in range(300)]:
        table[item.key] = item.rank + len(item.label)
    total = 0
    for key in sorted(table, key=lambda k: -k[0]):
        total += table[key]
    return acc, x, total


def _timed_probe() -> float:
    """Seconds of one probe loop, after one more that warms the caches.

    The collector stays off, so that a probe never pays for other garbage.
    """
    collecting = gc.isenabled()
    gc.disable()
    probe_loop()
    start = perf_counter()
    probe_loop()
    end = perf_counter()
    if collecting:
        gc.enable()
    return end - start


def slowdown_now(count: int = 15) -> float:
    """The median slowdown of ``count`` probes made back to back."""
    return median(_timed_probe() for _ in range(count)) / REFERENCE_PROBE_S


class Speedometer:
    """Probe start times and durations, collected while ``running``."""

    def __init__(self):
        self.starts = []
        self.handled = []  # time inside the signal handler, per probe
        self.slowdowns = []  # measured probe loop time over the reference

    def _probe(self, _signum, _frame):
        start = perf_counter()
        measured = _timed_probe()
        self.starts.append(start)
        self.handled.append(perf_counter() - start)
        self.slowdowns.append(measured / REFERENCE_PROBE_S)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _slowdown_between(self, i: int) -> float:
        """Slowdown between probe i - 1 and probe i.

        The median of those two probes and the two on either side, so that
        one probe hit by an interrupt does not skew the piece it bounds.
        """
        near = self.slowdowns[max(0, i - 3):i + 2]
        if not near:
            raise ValueError("no speed probes were taken")
        return median(near)

    def slowdown(self, t0: float, t1: float) -> float:
        """Wall time over scaled time of [t0, t1]."""
        return (t1 - t0) / self.scaled(t0, t1)

    def scaled(self, t0: float, t1: float, spent: float | None = None) -> float:
        """``spent`` (default t1 - t0), net of probes, at reference speed.

        The span is cut at each probe inside it; each piece, less the probe
        that opens it, is divided by the slowdown of the probes around it.
        """
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        cuts = [t0, *self.starts[i:j], t1]
        wall = scaled = 0.0
        for k in range(len(cuts) - 1):
            piece = cuts[k + 1] - cuts[k]
            if k:
                piece -= min(piece, self.handled[i + k - 1])
            wall += piece
            scaled += piece / self._slowdown_between(i + k)
        if spent is None or wall == 0:
            return scaled
        return scaled * (spent - (t1 - t0 - wall)) / wall
