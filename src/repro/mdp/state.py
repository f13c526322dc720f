"""State of the live-migration MDP (Section 4).

A state is a configuration of VMs on PMs together with the workload vector
``W`` (per-VM demanded CPU).  :class:`DatacenterState` is an immutable
snapshot used by schedulers; :func:`observe_state` captures one from a live
:class:`~repro.cloudsim.datacenter.Datacenter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.cloudsim.datacenter import Datacenter


@dataclass(frozen=True)
class DatacenterState:
    """Immutable snapshot of the data-center configuration and workload.

    Attributes:
        step: simulation step at which the snapshot was taken.
        placement: VM id -> PM id for every placed VM.
        workloads: per-VM demanded utilization, indexed by VM id.
        host_utilization: per-PM demanded utilization (can exceed 1 when
            oversubscribed).
        active_vms: ids of VMs with a running workload.
    """

    step: int
    placement: Tuple[Tuple[int, int], ...]
    workloads: Tuple[float, ...]
    host_utilization: Tuple[float, ...]
    active_vms: Tuple[int, ...]

    def placement_map(self) -> Dict[int, int]:
        """The placement as a dict (copy)."""
        return dict(self.placement)

    def host_of(self, vm_id: int) -> int | None:
        for vm, pm in self.placement:
            if vm == vm_id:
                return pm
        return None

    @property
    def num_vms(self) -> int:
        return len(self.workloads)

    @property
    def num_pms(self) -> int:
        return len(self.host_utilization)

    def configuration_key(self) -> Tuple[Tuple[int, int], ...]:
        """Hashable key identifying the configuration component only."""
        return self.placement


def observe_state(datacenter: Datacenter, step: int) -> DatacenterState:
    """Snapshot the current configuration and workload vector."""
    arrays = datacenter.arrays
    placed_ids = np.flatnonzero(arrays.host_of >= 0)
    placement = tuple(
        zip(placed_ids.tolist(), arrays.host_of[placed_ids].tolist())
    )
    workloads = tuple(arrays.vm_demand.tolist())
    host_utilization = tuple(arrays.pm_demand_utilization().tolist())
    active = tuple(np.flatnonzero(arrays.vm_active).tolist())
    return DatacenterState(
        step=step,
        placement=placement,
        workloads=workloads,
        host_utilization=host_utilization,
        active_vms=active,
    )
