"""VMM-style utilization monitoring.

The paper's global resource manager receives workload dynamics from the
per-host VMMs.  :class:`UtilizationMonitor` plays that role: it keeps a
bounded history of per-VM and per-host utilization samples, which the MMT
detectors (IQR/MAD/LR/LRR) and the learning schedulers consume.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.errors import ConfigurationError


class UtilizationMonitor:
    """Rolling history of demanded utilization per VM and per host.

    When the observed datacenter exposes a struct-of-arrays mirror, one
    observation is two vector copies into ``(history_length, N)`` /
    ``(history_length, M)`` ring buffers; per-entity histories are read
    back as ring columns.  Observing a plain object datacenter (the
    retained reference implementation) falls back to the original
    dict-of-deques bookkeeping.  The sampled quantities are identical —
    ``vm.demanded_utilization`` and the host's demanded utilization —
    so both storages return the same values bit for bit.

    Args:
        history_length: number of most-recent samples retained per entity.
            The Beloglazov heuristics use windows of 10–12 samples.
    """

    def __init__(self, history_length: int = 12) -> None:
        if history_length < 1:
            raise ConfigurationError("history_length must be >= 1")
        self._length = history_length
        self._vm_history: Dict[int, Deque[float]] = {}
        self._host_history: Dict[int, Deque[float]] = {}
        self._steps_observed = 0
        # Ring-buffer storage (allocated on the first array observation).
        self._vm_ring: Optional[np.ndarray] = None
        self._host_ring: Optional[np.ndarray] = None
        self._ring_filled = 0
        self._ring_pos = 0

    @property
    def history_length(self) -> int:
        return self._length

    @property
    def steps_observed(self) -> int:
        return self._steps_observed

    def observe(self, datacenter: Datacenter) -> None:
        """Record one sample for every VM and every host."""
        arrays = getattr(datacenter, "arrays", None)
        if (
            arrays is not None
            and not self._vm_history
            and (
                self._vm_ring is None
                or self._vm_ring.shape[1] == arrays.num_vms
            )
        ):
            if self._vm_ring is None:
                self._vm_ring = np.zeros(
                    (self._length, arrays.num_vms), dtype=np.float64
                )
                self._host_ring = np.zeros(
                    (self._length, arrays.num_pms), dtype=np.float64
                )
            self._vm_ring[self._ring_pos] = arrays.vm_demand
            self._host_ring[self._ring_pos] = arrays.pm_demand_utilization()
            self._ring_pos = (self._ring_pos + 1) % self._length
            self._ring_filled = min(self._ring_filled + 1, self._length)
        else:
            self._demote_ring()
            for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- compat path for object-model datacenters
                self._vm_history.setdefault(
                    vm.vm_id, deque(maxlen=self._length)
                ).append(vm.demanded_utilization)
            for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- compat path for object-model datacenters
                self._host_history.setdefault(
                    pm.pm_id, deque(maxlen=self._length)
                ).append(datacenter.demanded_utilization(pm.pm_id))
        self._steps_observed += 1

    def _chronological_rows(self) -> np.ndarray:
        """Ring row indices oldest-first."""
        if self._ring_filled < self._length:
            return np.arange(self._ring_filled, dtype=np.int64)
        return np.concatenate(
            [
                np.arange(self._ring_pos, self._length, dtype=np.int64),
                np.arange(self._ring_pos, dtype=np.int64),
            ]
        )

    def _demote_ring(self) -> None:
        """Fold ring-buffer samples back into deques (datacenter switch)."""
        if self._vm_ring is None:
            return
        rows = self._chronological_rows()
        for vm_id in range(self._vm_ring.shape[1]):
            history = deque(self._vm_ring[rows, vm_id].tolist(), maxlen=self._length)
            self._vm_history[vm_id] = history
        assert self._host_ring is not None
        for pm_id in range(self._host_ring.shape[1]):
            history = deque(self._host_ring[rows, pm_id].tolist(), maxlen=self._length)
            self._host_history[pm_id] = history
        self._vm_ring = None
        self._host_ring = None
        self._ring_filled = 0
        self._ring_pos = 0

    def vm_history(self, vm_id: int) -> List[float]:
        """Most-recent demanded-utilization samples for a VM (oldest first)."""
        if self._vm_ring is not None:
            if not 0 <= vm_id < self._vm_ring.shape[1]:
                return []
            return self._vm_ring[self._chronological_rows(), vm_id].tolist()
        return list(self._vm_history.get(vm_id, ()))

    def host_history(self, pm_id: int) -> List[float]:
        """Most-recent demanded-utilization samples for a host."""
        if self._host_ring is not None:
            if not 0 <= pm_id < self._host_ring.shape[1]:
                return []
            return self._host_ring[self._chronological_rows(), pm_id].tolist()
        return list(self._host_history.get(pm_id, ()))

    def host_matrix(self) -> np.ndarray:
        """Every host's history as one ``(W, M)`` matrix, oldest row first.

        Column ``pm_id`` equals :meth:`host_history` of that host.  The
        deque storage needs every host to hold the same number of
        samples, which one ``observe`` per step over a fixed fleet
        guarantees.  ``(0, 0)`` before the first observation.
        """
        if self._host_ring is not None:
            return self._host_ring[self._chronological_rows()]
        histories = [
            list(self._host_history[pm_id])
            for pm_id in range(len(self._host_history))
        ]
        if not histories:
            return np.empty((0, 0), dtype=np.float64)
        if len({len(history) for history in histories}) > 1:
            raise ValueError("host histories differ in length")
        return np.array(histories, dtype=np.float64).T

    def host_histories(self) -> Dict[int, List[float]]:
        """Snapshot of all host histories."""
        if self._host_ring is not None:
            ordered = self._host_ring[self._chronological_rows()]
            return {
                pm_id: ordered[:, pm_id].tolist()
                for pm_id in range(self._host_ring.shape[1])
            }
        return {pm_id: list(h) for pm_id, h in self._host_history.items()}

    def last_host_utilization(self, pm_id: int, default: float = 0.0) -> float:
        if self._host_ring is not None:
            if self._ring_filled == 0 or not 0 <= pm_id < self._host_ring.shape[1]:
                return default
            last = (self._ring_pos - 1) % self._length
            return float(self._host_ring[last, pm_id])
        history = self._host_history.get(pm_id)
        if not history:
            return default
        return history[-1]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median; 0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def interquartile_range(values: Sequence[float]) -> float:
    """IQR via the inclusive quartile method; 0 for fewer than 2 samples."""
    if len(values) < 2:
        return 0.0
    ordered = sorted(values)
    return _quantile(ordered, 0.75) - _quantile(ordered, 0.25)


def median_absolute_deviation(values: Sequence[float]) -> float:
    """MAD about the median; 0 for an empty sequence."""
    if not values:
        return 0.0
    center = median(values)
    return median([abs(v - center) for v in values])


def _quantile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac
