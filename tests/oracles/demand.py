"""The eager per-VM demand trace the service's step-wise walk replaced.

:func:`demand_trace` draws a VM's whole remaining horizon at creation
and clamps it in one loop; ``ServiceSimulation`` now advances each live
VM's walk one step per interval.  The ``vm_demand`` the service writes
at step ``t`` for a VM created at step ``c`` must equal
``demand_trace(...)[t - c]`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.service.loop import (
    _TRACE_BASE_RANGE,
    _TRACE_HI,
    _TRACE_LO,
    _TRACE_SIGMA,
)


def demand_trace(
    workload_seed: int, uid: int, created_step: int, total_steps: int
) -> np.ndarray:
    """The VM's utilization over ``[created_step, total_steps)``."""
    rng = np.random.default_rng((workload_seed, uid))
    length = max(1, total_steps - created_step)
    level = float(rng.uniform(*_TRACE_BASE_RANGE))
    deltas = rng.normal(0.0, _TRACE_SIGMA, size=length)
    trace = np.empty(length, dtype=np.float64)
    for index in range(length):
        level = min(_TRACE_HI, max(_TRACE_LO, level + deltas[index]))
        trace[index] = level
    return trace
