"""Host-speed probe: reports times at a fixed reference speed.

On a shared virtual machine the same work can take 1.5x longer from one
moment to the next, switching within a second and drifting over minutes,
so raw seconds from two runs are not comparable.  A meter runs a fixed
probe (a little dict, numpy and JSON work that does not touch the
package) every PERIOD_S of wall time from a SIGALRM handler in the
measuring process, so probes sample the same stretches of time as the
work.  Its clock leaves out the time probes take.  ``scale`` converts an
interval on that clock to the time it would take at the speed where one
probe takes REF_PROBE_S, using the probes run during the interval and
within WINDOW_S of it: the host's speed at that moment.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REF_PROBE_S = 0.001
PERIOD_S = 0.025
WINDOW_S = 0.05
MIN_PROBES = 3
_BASE = np.arange(32 * 32, dtype=np.int64).reshape(32, 32) % 7
_DOC = {"ints": list(range(40)), "rows": [{"p": i, "terms": "1*X^2*Y^3*Z^4"} for i in range(20)]}


def probe() -> float:
    """Run the fixed probe once; returns its duration in seconds.

    Three parts, because the host slows interpreter-bound and numpy-bound
    code by different amounts: dict arithmetic, small numpy products, and
    a JSON round trip.
    """
    started = perf_counter()
    table: dict = {}
    for i in range(800):
        table[i & 63] = (table.get(i & 63, 0) + i * i) % 7
    a = _BASE
    for _ in range(25):
        a = (a + np.outer(a[0], a[:, 1])) % 7
    for _ in range(3):
        json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
    return perf_counter() - started


class SpeedMeter:
    """Probes the host while active; a context manager around measured work."""

    def __init__(self):
        self.spent = 0.0  # seconds spent in probes
        self.at: list = []  # each probe's start, on ``clock``
        self.took: list = []  # each probe's duration
        self._previous = None

    def sample(self):
        at = self.clock()
        took = probe()
        self.spent += took
        self.at.append(at)
        self.took.append(took)

    def clock(self) -> float:
        """perf_counter without the time probes have taken."""
        return perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextmanager
    def paused(self):
        """No probes inside: for work that is not measured on this clock."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @property
    def mean_probe_s(self) -> float:
        return self.spent / len(self.took)

    def scale(self, start: float, seconds: float) -> float:
        """The interval [start, start + seconds] on ``clock``, at reference speed."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + seconds + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        local = sum(self.took[lo:hi]) / (hi - lo)
        return seconds * REF_PROBE_S / local
