"""The pre-rewrite (pure-object) datacenter: the placement oracle.

The ``Datacenter`` as it was before the struct-of-arrays rewrite:
placement in a ``dict``/``set`` index, every per-PM aggregate re-summed
from the hosted VMs on each query, CPU sharing as a per-host loop.
``tests/cloudsim/test_vectorized_equivalence.py`` drives it and the SoA
``Datacenter`` in lockstep and requires every query to agree
bit-for-bit.  One deliberate difference from the historical code:
per-host sums iterate the hosted VMs in ascending id order, the
accumulation order of the SoA backend (the golden traces reproduce
under both orders).  The step pipeline rejects this class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.cloudsim.pm import PhysicalMachine
from repro.cloudsim.vm import VirtualMachine
from repro.errors import CapacityError, UnknownEntityError

__all__ = ["ReferenceDatacenter"]


class ReferenceDatacenter:
    """Pure-object placement map — same API and semantics as
    :class:`~repro.cloudsim.datacenter.Datacenter`, no arrays.

    VMs and PMs keep their dynamic state on themselves (they are never
    bound to a :class:`~repro.cloudsim.soa.DatacenterArrays`), so this
    class exercises the scalar code paths of the entity objects.
    """

    def __init__(
        self,
        pms: Sequence[PhysicalMachine],
        vms: Sequence[VirtualMachine],
        migration_overhead_fraction: float = 0.10,
    ) -> None:
        self._pms: List[PhysicalMachine] = list(pms)
        self._vms: List[VirtualMachine] = list(vms)
        self._check_dense_ids()
        self._host_of: Dict[int, int] = {}
        self._vms_on: Dict[int, Set[int]] = {pm.pm_id: set() for pm in self._pms}
        self.migration_overhead_fraction = migration_overhead_fraction

    def _check_dense_ids(self) -> None:
        pm_ids = sorted(pm.pm_id for pm in self._pms)
        vm_ids = sorted(vm.vm_id for vm in self._vms)
        if pm_ids != list(range(len(self._pms))):
            raise UnknownEntityError("PM ids must be dense 0..M-1")
        if vm_ids != list(range(len(self._vms))):
            raise UnknownEntityError("VM ids must be dense 0..N-1")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pms(self) -> int:
        return len(self._pms)

    @property
    def num_vms(self) -> int:
        return len(self._vms)

    @property
    def pms(self) -> Sequence[PhysicalMachine]:
        return tuple(self._pms)

    @property
    def vms(self) -> Sequence[VirtualMachine]:
        return tuple(self._vms)

    def pm(self, pm_id: int) -> PhysicalMachine:
        if not 0 <= pm_id < len(self._pms):
            raise UnknownEntityError(f"no PM with id {pm_id}")
        return self._pms[pm_id]

    def vm(self, vm_id: int) -> VirtualMachine:
        if not 0 <= vm_id < len(self._vms):
            raise UnknownEntityError(f"no VM with id {vm_id}")
        return self._vms[vm_id]

    def host_of(self, vm_id: int) -> Optional[int]:
        self.vm(vm_id)
        return self._host_of.get(vm_id)

    def vms_on(self, pm_id: int) -> Set[int]:
        self.pm(pm_id)
        return set(self._vms_on[pm_id])

    def placement(self) -> Dict[int, int]:
        return dict(self._host_of)

    def is_placed(self, vm_id: int) -> bool:
        return vm_id in self._host_of

    # ------------------------------------------------------------------
    # Capacity accounting (re-summed per query, ascending id order)
    # ------------------------------------------------------------------
    def ram_used_mb(self, pm_id: int) -> float:
        return sum(self._vms[j].ram_mb for j in sorted(self._vms_on[pm_id]))

    def ram_free_mb(self, pm_id: int) -> float:
        return self.pm(pm_id).ram_mb - self.ram_used_mb(pm_id)

    def demanded_mips(self, pm_id: int) -> float:
        return sum(
            self._vms[j].demanded_mips for j in sorted(self._vms_on[pm_id])
        )

    def demanded_utilization(self, pm_id: int) -> float:
        return self.demanded_mips(pm_id) / self.pm(pm_id).mips

    def delivered_utilization(self, pm_id: int) -> float:
        delivered = sum(
            self._vms[j].delivered_mips for j in sorted(self._vms_on[pm_id])
        )
        return min(1.0, delivered / self.pm(pm_id).mips)

    def fits(self, vm_id: int, pm_id: int) -> bool:
        vm = self.vm(vm_id)
        if self.host_of(vm_id) == pm_id:
            return True
        return vm.ram_mb <= self.ram_free_mb(pm_id)

    def active_pm_ids(self) -> List[int]:
        return [pm_id for pm_id, vms in self._vms_on.items() if vms]

    def num_active_hosts(self) -> int:
        return len(self.active_pm_ids())

    # ------------------------------------------------------------------
    # Placement mutation
    # ------------------------------------------------------------------
    def place(self, vm_id: int, pm_id: int) -> None:
        vm = self.vm(vm_id)
        pm = self.pm(pm_id)
        if vm_id in self._host_of:
            raise CapacityError(
                f"VM {vm_id} is already placed on PM {self._host_of[vm_id]}"
            )
        if vm.ram_mb > self.ram_free_mb(pm_id):
            raise CapacityError(
                f"VM {vm_id} ({vm.ram_mb} MB) does not fit on PM {pm_id} "
                f"({self.ram_free_mb(pm_id)} MB free)"
            )
        pm.wake()
        self._host_of[vm_id] = pm_id
        self._vms_on[pm_id].add(vm_id)

    def remove(self, vm_id: int) -> int:
        if vm_id not in self._host_of:
            raise UnknownEntityError(f"VM {vm_id} is not placed")
        pm_id = self._host_of.pop(vm_id)
        self._vms_on[pm_id].discard(vm_id)
        return pm_id

    def move(self, vm_id: int, dest_pm_id: int) -> int:
        source = self.host_of(vm_id)
        if source is None:
            raise UnknownEntityError(f"VM {vm_id} is not placed")
        if source == dest_pm_id:
            return source
        if not self.fits(vm_id, dest_pm_id):
            raise CapacityError(
                f"VM {vm_id} does not fit on PM {dest_pm_id}"
            )
        self.remove(vm_id)
        self.place(vm_id, dest_pm_id)
        return source

    def sleep_idle_hosts(self) -> List[int]:
        slept = []
        for pm in self._pms:
            if not self._vms_on[pm.pm_id] and not pm.asleep:
                pm.sleep()
                slept.append(pm.pm_id)
        return slept

    # ------------------------------------------------------------------
    # CPU sharing
    # ------------------------------------------------------------------
    def share_cpu(self, migrating_vm_ids: Iterable[int] = ()) -> None:
        migrating = set(migrating_vm_ids)
        for pm in self._pms:
            hosted = self._vms_on[pm.pm_id]
            if not hosted:
                continue
            total_demand = sum(
                self._vms[j].demanded_mips for j in sorted(hosted)
            )
            if total_demand <= pm.mips or total_demand <= 0.0:
                scale = 1.0
            else:
                scale = pm.mips / total_demand
            for j in hosted:
                vm = self._vms[j]
                delivered = vm.demanded_utilization * scale
                vm.delivered_utilization = delivered
        # Unplaced VMs receive nothing.
        for vm in self._vms:
            if vm.vm_id not in self._host_of:
                vm.delivered_utilization = 0.0
        if migrating:
            self.apply_migration_overhead(migrating)

    def apply_migration_overhead(
        self, vm_ids: Iterable[int], overhead_fraction: Optional[float] = None
    ) -> None:
        if overhead_fraction is None:
            overhead_fraction = self.migration_overhead_fraction
        for vm_id in vm_ids:
            vm = self.vm(vm_id)
            vm.delivered_utilization *= 1.0 - overhead_fraction

    def is_overloaded(self, pm_id: int, beta: float) -> bool:
        return self.demanded_utilization(pm_id) > beta

    def bandwidth_demanded_mbps(self, pm_id: int) -> float:
        return sum(
            self._vms[j].demanded_bandwidth_mbps
            for j in sorted(self._vms_on[pm_id])
        )

    def bandwidth_demanded_utilization(self, pm_id: int) -> float:
        return self.bandwidth_demanded_mbps(pm_id) / self.pm(pm_id).bandwidth_mbps

    def is_bandwidth_overloaded(self, pm_id: int, threshold: float) -> bool:
        return self.bandwidth_demanded_utilization(pm_id) > threshold

    def overloaded_pm_ids(
        self, beta: float, bandwidth_threshold: Optional[float] = None
    ) -> List[int]:
        overloaded = []
        for pm in self._pms:
            if not self._vms_on[pm.pm_id]:
                continue
            if self.is_overloaded(pm.pm_id, beta) or (
                bandwidth_threshold is not None
                and self.is_bandwidth_overloaded(
                    pm.pm_id, bandwidth_threshold
                )
            ):
                overloaded.append(pm.pm_id)
        return overloaded
