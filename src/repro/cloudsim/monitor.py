"""VMM-style utilization monitoring.

The paper's global resource manager receives workload dynamics from the
per-host VMMs.  :class:`UtilizationMonitor` plays that role: it keeps a
bounded history of per-VM and per-host utilization samples, which the MMT
detectors (IQR/MAD/LR/LRR) and the learning schedulers consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.errors import ConfigurationError


class UtilizationMonitor:
    """Rolling history of demanded utilization per VM and per host.

    One observation is two vector copies off the datacenter's
    struct-of-arrays store into ``(history_length, N)`` /
    ``(history_length, M)`` ring buffers, allocated on the first
    observation; per-entity histories are read back as ring columns.
    The rings are sized to the first datacenter observed: observing one
    of a different size raises ``ValueError``.

    Args:
        history_length: number of most-recent samples retained per entity.
            The Beloglazov heuristics use windows of 10–12 samples.
    """

    def __init__(self, history_length: int = 12) -> None:
        if history_length < 1:
            raise ConfigurationError("history_length must be >= 1")
        self._length = history_length
        self._steps_observed = 0
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
        arrays = datacenter.arrays
        if self._vm_ring is None:
            self._vm_ring = np.zeros(
                (self._length, arrays.num_vms), dtype=np.float64
            )
            self._host_ring = np.zeros(
                (self._length, arrays.num_pms), dtype=np.float64
            )
        elif self._vm_ring.shape[1] != arrays.num_vms or (
            self._host_ring.shape[1] != arrays.num_pms
        ):
            raise ValueError(
                f"monitor rings cover {self._vm_ring.shape[1]} VMs / "
                f"{self._host_ring.shape[1]} PMs but the datacenter has "
                f"{arrays.num_vms} / {arrays.num_pms}"
            )
        self._vm_ring[self._ring_pos] = arrays.vm_demand
        self._host_ring[self._ring_pos] = arrays.pm_demand_utilization()
        self._ring_pos = (self._ring_pos + 1) % self._length
        self._ring_filled = min(self._ring_filled + 1, self._length)
        self._steps_observed += 1

    def state(self) -> Tuple[Dict[str, int], Dict[str, np.ndarray]]:
        """Restart state as ``(counters, rings)``; ``rings`` is empty
        before the first observation.  :meth:`restore` inverts it."""
        counters = {
            "length": self._length,
            "pos": self._ring_pos,
            "filled": self._ring_filled,
            "steps_observed": self._steps_observed,
        }
        rings: Dict[str, np.ndarray] = {}
        if self._vm_ring is not None:
            rings = {"vm": self._vm_ring, "host": self._host_ring}
        return counters, rings

    @classmethod
    def restore(
        cls, counters: Dict[str, int], rings: Dict[str, np.ndarray]
    ) -> "UtilizationMonitor":
        """A monitor holding the state :meth:`state` captured."""
        monitor = cls(history_length=int(counters["length"]))
        if rings:
            monitor._vm_ring = np.array(rings["vm"], dtype=np.float64)
            monitor._host_ring = np.array(rings["host"], dtype=np.float64)
            monitor._ring_pos = int(counters["pos"])
            monitor._ring_filled = int(counters["filled"])
        monitor._steps_observed = int(counters["steps_observed"])
        return monitor

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

    def vm_history(self, vm_id: int) -> List[float]:
        """Most-recent demanded-utilization samples for a VM (oldest first)."""
        if self._vm_ring is None or not 0 <= vm_id < self._vm_ring.shape[1]:
            return []
        return self._vm_ring[self._chronological_rows(), vm_id].tolist()

    def host_history(self, pm_id: int) -> List[float]:
        """Most-recent demanded-utilization samples for a host."""
        if self._host_ring is None or not 0 <= pm_id < self._host_ring.shape[1]:
            return []
        return self._host_ring[self._chronological_rows(), pm_id].tolist()

    def host_matrix(self) -> np.ndarray:
        """Every host's history as one ``(W, M)`` matrix, oldest row first.

        Column ``pm_id`` equals :meth:`host_history` of that host.
        ``(0, 0)`` before the first observation.
        """
        if self._host_ring is None:
            return np.empty((0, 0), dtype=np.float64)
        return self._host_ring[self._chronological_rows()]

    def host_histories(self) -> Dict[int, List[float]]:
        """Snapshot of all host histories."""
        if self._host_ring is None:
            return {}
        ordered = self.host_matrix()
        return {
            pm_id: ordered[:, pm_id].tolist()
            for pm_id in range(self._host_ring.shape[1])
        }

    def last_host_utilization(self, pm_id: int, default: float = 0.0) -> float:
        if (
            self._host_ring is None
            or self._ring_filled == 0
            or not 0 <= pm_id < self._host_ring.shape[1]
        ):
            return default
        last = (self._ring_pos - 1) % self._length
        return float(self._host_ring[last, pm_id])

