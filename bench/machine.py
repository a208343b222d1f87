"""Machine-speed calibration.

This benchmark runs on a shared two-core virtual machine whose speed,
as seen from inside, swings by up to 1.7x for tens of seconds to minutes
at a time while other tenants load the host.  A median over one run then
records mostly which phase the run fell in.  So the machine is calibrated
before, during and after every timed sample, with a fixed pure-Python
workload of the same kind cdtsep runs (breadth-first searches, dict and
tuple churn) on a fixed random cubic multigraph.  A sample is reported
scaled to REFERENCE_S, ``wall * REFERENCE_S / calibration``, that is, in
seconds of a machine on which the calibration takes REFERENCE_S.  Over
four minutes of alternating calibrations and relabel-separate passes, the
raw pass medians of 25-second windows ranged over 1.72x and the scaled
ones over 1.10x.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# About the fastest this machine runs the calibration (Intel Xeon, two
# vCPUs, Python 3.11.7), so scaled figures read as seconds of that machine
# in a quiet phase.
REFERENCE_S = 0.002


def _cubic_multigraph(n: int, seed: int) -> list[list[int]]:
    """Union of three random perfect matchings on n vertices."""
    rng = random.Random(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(0, n, 2):
            adj[perm[i]].append(perm[i + 1])
            adj[perm[i + 1]].append(perm[i])
    return adj


_ADJ = _cubic_multigraph(300, seed=0)


def _work() -> int:
    keys = set()
    for root in range(0, len(_ADJ), 10):
        dist = {root: 0}
        queue = [root]
        for u in queue:
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        keys.add(tuple(sorted((u, dist[u]) for u in queue[:20])))
    return len(keys)


def calibrate() -> float:
    """Seconds the calibration workload takes now (median of three)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(calibration: float) -> float:
    """Factor turning wall seconds measured at this calibration into
    reference seconds."""
    return REFERENCE_S / calibration


class Sampler:
    """Calibrations around and during a timed region: one before, one
    every INTERVAL seconds from a SIGALRM handler, one after.  The handler
    pauses the region for one calibration (about 0.6% of its time)."""

    INTERVAL = 0.5

    def __enter__(self) -> "Sampler":
        self.samples = [calibrate()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        _work()
        self.samples.append(perf_counter() - t0)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    @property
    def calibration(self) -> float:
        """Mean calibration time over the region: its average speed."""
        return statistics.fmean(self.samples)
