"""Machine-speed calibration, so times from a shared machine compare.

On a machine shared with other tenants the same Python code runs up to
twice as slowly for minutes at a time, and CPU time slows with wall
time, so neither separates a slower program from a slower machine.
:class:`Speed` runs a fixed piece of pure-Python work -- dict, tuple,
set, attribute and sort operations, like the program's own -- between
ops, outside their timing, at most every :data:`EVERY` seconds.  A time
is scaled by ``REFERENCE_SECONDS / calibration time`` near it: that is
the time the same work would take on a machine where the calibration
takes :data:`REFERENCE_SECONDS`.  The calibration is the benchmark's
own code, so the program cannot change it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import List

#: seconds of wall time between two calibrations
EVERY = 0.2
#: the calibration time that defines the reference machine speed
REFERENCE_SECONDS = 0.0025
#: a time is scaled by the median of this many calibrations nearest it
NEIGHBOURS = 5


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


def _work() -> int:
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = _Item(i, str(i))
    labels = set()
    for (_, residue), item in table.items():
        if residue != 3:
            labels.add(item.label)
    return len(sorted(labels))


class Speed:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Calibrate now; returns the sample's index.  The collector is
        off meanwhile, so the program's heap does not slow the sample
        (the work leaves no cyclic garbage)."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Calibrate if :data:`EVERY` seconds have passed since the last
        sample; returns the index of the latest sample."""
        if time.perf_counter() - self._last >= EVERY:
            return self.sample()
        return len(self.samples) - 1

    def factor_at(self, index: int) -> float:
        """The scale for a time taken right after sample ``index``."""
        low = max(0, index - NEIGHBOURS // 2)
        near = self.samples[low:low + NEIGHBOURS]
        return REFERENCE_SECONDS / statistics.median(near)

    def factor(self) -> float:
        """The scale for the whole run."""
        return REFERENCE_SECONDS / statistics.median(self.samples)
