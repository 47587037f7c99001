"""Host speed, read from a fixed probe run between timed items.

On a virtual machine shared with other tenants the same solve can take
twice as long from one second to the next, and slow phases outlast a whole
run.  Process CPU time does not help there: it slows down exactly as wall
time does.  So the harness runs a fixed probe between items, at most every
PROBE_EVERY_S, and rescales each item's wall time to the speed at which the
probe takes its reference time:

    reported = wall * ref_s / median(probes within PROBE_WINDOW_S of the item)

Each item is rescaled by the probe shaped like it, because the host's
drift does not slow every kind of work alike (a pure-Python loop and numpy
array passes were seen to drift in opposite directions in the same second):

* "python": a pure-Python loop of dict lookups and float arithmetic, like
  the walk solver's, the compose recursion's and the Monte Carlo loops;
* "numpy": passes over freshly allocated float arrays (arithmetic, running
  minimum, sort), like the grid oracle's frontiers;
* "child": a fresh interpreter that runs this file, and so the "python"
  loop.  Process start-up drifts with memory and page-cache traffic that an
  in-process loop does not feel.

A change to the package does not touch the probe, so it moves the rescaled
times as it moves the raw ones; host drift moves both the item and the
probes around it, and cancels.  Raw wall times are reported beside the
rescaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

PROBE_EVERY_S = 0.05    # probe before an item if the last probe is older
PROBE_WINDOW_S = 0.25   # probes this close to an item set its scale
PROBE_REPEATS = 3       # an in-process probe is the fastest of this many runs
CHILD_PROBE = [sys.executable, "-I", __file__]


def _probe_work() -> float:
    # dict lookups and float arithmetic, like the package's inner loops
    table: dict[int, float] = {}
    x = 0.0
    for i in range(4000):
        k = i & 127
        x = 0.5 * x + table.get(k, 1.0)
        table[k] = x
    return x


def _numpy_work():
    import numpy as np  # here, so that importing this file leaves numpy out
    a = np.arange(30_000, dtype=float)
    for _ in range(3):
        b = a * 0.5 + 1.0
        a = np.sort(np.minimum.accumulate(b[::-1]))
    return a


def _fastest(work) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def _child() -> float:
    t0 = time.perf_counter()
    subprocess.run(CHILD_PROBE, check=True)
    return time.perf_counter() - t0


# kind -> (probe, its time in seconds at the reference speed)
PROBES = {
    "python": (lambda: _fastest(_probe_work), 0.6e-3),
    "numpy": (lambda: _fastest(_numpy_work), 1.5e-3),
    "child": (_child, 0.07),
}


class Speed:
    """Probe marks (time, probe seconds) and the scale they give an interval."""

    def __init__(self, kind: str = "python"):
        self._probe, self.ref_s = PROBES[kind]
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> None:
        seconds = self._probe()
        self.times.append(time.perf_counter())
        self.probes.append(seconds)

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def latest_scale(self) -> float:
        return self.ref_s / self.probes[-1]

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes wall time spent in [t0, t1] to the reference speed.

        The caller probes right before and right after the interval, so at
        least one probe lies in the window.
        """
        lo = bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        return self.ref_s / statistics.median(self.probes[lo:hi])


if __name__ == "__main__":  # the child probe
    _probe_work()
