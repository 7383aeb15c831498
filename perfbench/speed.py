"""Scaling wall times to a reference speed.

The machines the benchmark runs on are shared, and other tenants slow
the interpreter down by a third or more for seconds to minutes at a time:
pass times of one workload varied by 35% between runs, and a fixed loop
by 80%.  CPU time slows down just as much, so it is no remedy.  So while
a timed region runs, SIGALRM runs a short fixed F_p kernel every
INTERVAL seconds on the main thread; the kernel is also run right before
and after the region.  The region's time, minus the time spent in the
kernel, is multiplied by CAL_REF / (median kernel time), so that it reads
as seconds on the reference machine at idle.  The kernel is written here,
not in nexakt, so no change to nexakt moves it.

The kernel runs with the cyclic garbage collector off: its allocations
must not set off a collection of nexakt's heap inside a sample, which
would be counted as kernel time.  The median of a region's samples, not
the mean, sets its scale, so one slow sample does not move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

# fastest kernel time, in s, on a 2-vCPU Intel Xeon with CPython 3.11
CAL_REF = 0.00043
INTERVAL = 0.1      # s between kernel samples inside a timed region
_P = 65537
_MATRIX = [[(i * 7919 + j * 104729 + 1) % _P for j in range(14)]
           for i in range(14)]


def kernel():
    """A 14x14 product and row reduction over F_65537: the same mix of
    integer arithmetic, list and tuple work as nexakt's inner loops."""
    a, p, n = _MATRIX, _P, len(_MATRIX)
    flat = [0] * (n * n)
    for i in range(n):
        for t in range(n):
            x = a[i][t]
            for j in range(n):
                flat[i * n + j] = (flat[i * n + j] + x * a[t][j]) % p
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    for c in range(n):
        inv = pow(rows[c][c] or 1, p - 2, p)
        rows[c] = [(x * inv) % p for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return rows


class SpeedProbe:
    """Times regions and scales them to the reference speed.

    Inside ``with probe:`` the kernel also runs every INTERVAL seconds;
    outside it, only before and after each region (the traced run uses
    that, so that no kernel time falls inside a span)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextmanager
    def region(self):
        """Yields a list that receives (unscaled s, scaled s) on exit."""
        self._sample()
        first = len(self.samples) - 1
        spent = self.spent
        t0 = time.perf_counter()
        out = []
        try:
            yield out
        finally:
            took = time.perf_counter() - t0 - (self.spent - spent)
            self._sample()
            speed = statistics.median(self.samples[first:])
            out.extend((took, took * CAL_REF / speed))
            del self.samples[:]
