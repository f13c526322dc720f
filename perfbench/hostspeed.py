"""A fixed slice of CPU work that the benchmark uses as its clock.

On a shared 2-CPU Xeon container (no hardware counters) each CPU ran at
one of two speeds, 1.5x to 1.75x apart, and switched between them within
a second, on both CPUs independently, with the share of slow time
drifting over minutes.  Host seconds then say as much about the host as
about the program.  So the benchmark times this slice of work, which
never changes, between the steps of a run, and divides every host time
it reports by the run's *slowdown*: the slices' mean time over
:data:`NOMINAL_SLICE_SECONDS`.  Reported times are host seconds at the
nominal speed, and the slowdown itself goes into the run's metadata.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

#: One slice's time on that container at its faster speed.  It only
#: scales the reported times; it does not depend on the program.
NOMINAL_SLICE_SECONDS = 1.3e-3

#: Least host time between two slices taken between steps, so that the
#: slices sample the run evenly in time and cost about 3% of it.
PROBE_INTERVAL_SECONDS = 0.05

#: A few megabytes of Python objects and a fixed scattered walk over them.
#: Of the slices tried (an arithmetic loop, NumPy gathers over 16 MB and
#: this), this one slowed down with the host most like the simulator:
#: over 46 horizons of ``mmt-planetlab`` the log of a horizon's time
#: moved with the log of the mean slice time at slope 1.01 (correlation
#: 0.96), and dividing by it cut the horizons' variation from 15% to 4%.
_OBJECTS = list(range(200_000))
_WALK = [int(i) for i in np.random.default_rng(0).permutation(200_000)[:6000]]


def reference_slice() -> int:
    """Fixed dictionary inserts fed by scattered list reads."""
    table = {}
    for index in _WALK:
        table[index] = _OBJECTS[index]
    return len(table)


class SpeedProbe:
    """Times reference slices; their mean gives the host's slowdown."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        started = time.perf_counter()
        reference_slice()
        self._last = time.perf_counter()
        self.samples.append(self._last - started)

    def between_steps(self) -> float:
        """Take a slice if the last is old enough; the host seconds spent."""
        started = time.perf_counter()
        if started - self._last < PROBE_INTERVAL_SECONDS:
            return 0.0
        self.sample()
        return time.perf_counter() - started

    def slowdown(self) -> float:
        """Mean slice time over the nominal one (1.0 without samples)."""
        if not self.samples:
            return 1.0
        mean = math.fsum(self.samples) / len(self.samples)
        return mean / NOMINAL_SLICE_SECONDS
