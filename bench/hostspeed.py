"""Host-speed normalization for timings taken on a shared machine.

On a host shared with other tenants, the same Python code runs up to about
twice as slowly for stretches of seconds at a time, in CPU time as well as
wall time, so a run's raw timings mostly measure its neighbours.  A fixed
reference task, independent of the library, is timed every REF_INTERVAL
seconds between verdicts.  Each verdict time is then scaled by
REF_NOMINAL_S / (median reference time within WINDOW seconds of it): the
time the verdict would have taken on a host that runs the reference in
REF_NOMINAL_S.  The reference only walks a tree built once and updates
integer counters, so it allocates no objects the garbage collector tracks
and its cost does not depend on the library's heap.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_DEPTH = 12          # reference tree: 2**12 leaves
REF_NOMINAL_S = 1.0e-3  # reference time on a quiet host (x86-64, Python 3.11)
REF_INTERVAL = 0.05     # seconds between reference samples
WINDOW = 0.5            # seconds on either side of a verdict


def _tree(depth: int):
    if depth == 0:
        return ()
    return (_tree(depth - 1), _tree(depth - 1))


def _walk(node, counts: list[int]) -> None:
    counts[len(node)] += 1
    for child in node:
        _walk(child, counts)


class HostSpeed:
    """Reference samples along a run, and the scaling they imply."""

    def __init__(self):
        self._tree = _tree(REF_DEPTH)
        self.times: list[float] = []     # when each sample started
        self.samples: list[float] = []   # how long it took
        self._last = float("-inf")

    def sample(self) -> None:
        counts = [0, 0, 0]
        started = time.perf_counter()
        _walk(self._tree, counts)
        ended = time.perf_counter()
        self.times.append(started)
        self.samples.append(ended - started)
        self._last = ended

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REF_INTERVAL:
            self.sample()

    def factor(self, at: float) -> float:
        """Scale for a timing taken at `at` (a perf_counter value)."""
        lo = bisect.bisect_left(self.times, at - WINDOW)
        hi = bisect.bisect_right(self.times, at + WINDOW)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])

    def run_factor(self) -> float:
        """One scale for a whole run, from all its samples."""
        return REF_NOMINAL_S / statistics.median(self.samples)
