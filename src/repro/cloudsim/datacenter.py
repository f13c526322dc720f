"""Data-center placement bookkeeping and CPU capacity sharing.

The :class:`Datacenter` owns the VM→PM placement map, enforces RAM
feasibility on placement, and computes per-step delivered CPU: when a
host's aggregate demand exceeds its capacity, every VM on it is scaled
down proportionally (fair sharing), which is what makes hosts "overloaded"
in the SLA sense of Section 3.3.

Since the struct-of-arrays rewrite, the hot state lives in
:class:`~repro.cloudsim.soa.DatacenterArrays` (``host_of``, per-VM
demand/delivered vectors, lazily-rebuilt per-PM aggregates) and the
per-step operations — :meth:`share_cpu`, overload detection, active-host
queries — run as whole-fleet NumPy expressions.  The object model
(:class:`~repro.cloudsim.vm.VirtualMachine` /
:class:`~repro.cloudsim.pm.PhysicalMachine`) is a thin view over the
arrays, and the legacy ``dict``/``set`` placement index is still
maintained incrementally so the public API (``vms_on``, ``placement``,
iteration order included) is exactly what it was before the rewrite.
The pre-rewrite implementation is kept as a test oracle
(``tests/oracles/reference_datacenter.py``) and held bit-for-bit equal
by ``tests/cloudsim/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cloudsim.pm import PhysicalMachine
from repro.cloudsim.power import PowerModel
from repro.cloudsim.soa import DatacenterArrays
from repro.cloudsim.vm import VirtualMachine
from repro.errors import CapacityError, UnknownEntityError


class Datacenter:
    """Placement map over a fleet of PMs and VMs.

    Args:
        pms: the physical machines, with dense ids ``0..M-1``.
        vms: the virtual machines, with dense ids ``0..N-1``.
        migration_overhead_fraction: CPU share a migrating VM loses to
            the copy process when :meth:`share_cpu` is asked to charge
            it in one shot (``DatacenterConfig.migration_overhead_fraction``;
            the simulation driver plumbs the configured value through).

    The data center starts with every VM unplaced; use
    :meth:`place` (or an allocation policy from
    :mod:`repro.cloudsim.allocation`) to build the initial configuration.

    Binding note: constructing a ``Datacenter`` moves the dynamic state
    of the given VMs/PMs into its arrays; sharing entity objects between
    two live datacenters is not supported (the last bind wins).
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
        self._vms_on: Dict[int, Set[int]] = {pm.pm_id: set() for pm in self._pms}  # meghlint: ignore[MEGH009] -- one-time construction
        self.migration_overhead_fraction = migration_overhead_fraction
        self.arrays = DatacenterArrays(len(self._vms), len(self._pms))
        for vm in self._vms:  # meghlint: ignore[MEGH009] -- one-time binding at construction
            vm._bind(self.arrays, vm.vm_id)
        for pm in self._pms:  # meghlint: ignore[MEGH009] -- one-time binding at construction
            pm._bind(self.arrays, pm.pm_id)
        self._power_groups: Optional[List[Tuple[PowerModel, np.ndarray]]] = None

    def _check_dense_ids(self) -> None:
        pm_ids = sorted(pm.pm_id for pm in self._pms)  # meghlint: ignore[MEGH009] -- one-time construction
        vm_ids = sorted(vm.vm_id for vm in self._vms)  # meghlint: ignore[MEGH009] -- one-time construction
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

    def power_groups(self) -> List[Tuple[PowerModel, np.ndarray]]:
        """Host ids grouped by power-model instance, in first-seen order.

        Vectorized power evaluation (energy accounting, PABFD placement)
        calls ``power_batch`` once per group.  Built on first use: the
        fleet and each host's power model are fixed after construction.
        """
        if self._power_groups is None:
            by_model: Dict[int, Tuple[PowerModel, List[int]]] = {}
            for pm in self._pms:  # meghlint: ignore[MEGH009] -- built once per datacenter
                by_model.setdefault(id(pm.power_model), (pm.power_model, []))[
                    1
                ].append(pm.pm_id)
            self._power_groups = [
                (model, np.asarray(ids, dtype=np.int64))
                for model, ids in by_model.values()
            ]
        return self._power_groups

    def pm(self, pm_id: int) -> PhysicalMachine:
        """Return the PM with the given id."""
        if not 0 <= pm_id < len(self._pms):
            raise UnknownEntityError(f"no PM with id {pm_id}")
        return self._pms[pm_id]

    def vm(self, vm_id: int) -> VirtualMachine:
        """Return the VM with the given id."""
        if not 0 <= vm_id < len(self._vms):
            raise UnknownEntityError(f"no VM with id {vm_id}")
        return self._vms[vm_id]

    def host_of(self, vm_id: int) -> Optional[int]:
        """PM id hosting the VM, or ``None`` if unplaced."""
        self.vm(vm_id)
        return self._host_of.get(vm_id)

    def vms_on(self, pm_id: int) -> Set[int]:
        """Ids of the VMs currently placed on the PM (a copy)."""
        self.pm(pm_id)
        return set(self._vms_on[pm_id])

    def placement(self) -> Dict[int, int]:
        """Full VM→PM map (a copy)."""
        return dict(self._host_of)

    def is_placed(self, vm_id: int) -> bool:
        return vm_id in self._host_of

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    def ram_used_mb(self, pm_id: int) -> float:
        """RAM committed to VMs on the host."""
        if not 0 <= pm_id < len(self._pms):
            raise KeyError(pm_id)
        return float(self.arrays.pm_ram_used_mb()[pm_id])

    def ram_free_mb(self, pm_id: int) -> float:
        """RAM still available on the host.

        Reads the cached :meth:`DatacenterArrays.pm_ram_free_mb` vector
        — element-for-element the same IEEE subtraction as the previous
        per-call ``pm.ram_mb - ram_used_mb(pm_id)``, but computed once
        per RAM-aggregate rebuild instead of once per query.
        """
        if not 0 <= pm_id < len(self._pms):
            raise KeyError(pm_id)
        return float(self.arrays.pm_ram_free_mb()[pm_id])

    def demanded_mips(self, pm_id: int) -> float:
        """Aggregate MIPS demanded by workloads on the host this step."""
        if not 0 <= pm_id < len(self._pms):
            raise KeyError(pm_id)
        return float(self.arrays.pm_demand_mips()[pm_id])

    def demanded_utilization(self, pm_id: int) -> float:
        """Demanded load as a fraction of host capacity (can exceed 1)."""
        return self.demanded_mips(pm_id) / self.pm(pm_id).mips

    def delivered_utilization(self, pm_id: int) -> float:
        """Delivered load fraction after fair sharing (capped at 1)."""
        delivered = float(self.arrays.pm_delivered_mips()[pm_id])
        return min(1.0, delivered / self.pm(pm_id).mips)

    def fits(self, vm_id: int, pm_id: int) -> bool:
        """Whether the VM's RAM reservation fits on the host right now."""
        vm = self.vm(vm_id)
        self.pm(pm_id)
        if self._host_of.get(vm_id) == pm_id:
            return True
        return vm.ram_mb <= self.ram_free_mb(pm_id)

    def active_pm_ids(self) -> List[int]:
        """Hosts that currently serve at least one VM."""
        return np.flatnonzero(self.arrays.active_pm_mask()).tolist()

    def num_active_hosts(self) -> int:
        """Count of hosts serving at least one VM."""
        return int(np.count_nonzero(self.arrays.active_pm_mask()))

    # ------------------------------------------------------------------
    # Placement mutation
    # ------------------------------------------------------------------
    def place(self, vm_id: int, pm_id: int) -> None:
        """Place an unplaced VM on a host, waking the host if needed."""
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
        self._attach(vm_id, pm_id)

    def _attach(self, vm_id: int, pm_id: int) -> None:
        """Put an unplaced VM on a host whose RAM was checked, waking
        the host."""
        self._pms[pm_id].wake()
        self._host_of[vm_id] = pm_id
        self._vms_on[pm_id].add(vm_id)
        self.arrays.host_of[vm_id] = pm_id
        self.arrays.pm_vm_count[pm_id] += 1
        self.arrays.mark_placement_dirty()

    def remove(self, vm_id: int) -> int:
        """Unplace a VM; returns the PM id it was removed from."""
        if vm_id not in self._host_of:
            raise UnknownEntityError(f"VM {vm_id} is not placed")
        pm_id = self._host_of.pop(vm_id)
        self._vms_on[pm_id].discard(vm_id)
        self.arrays.host_of[vm_id] = -1
        self.arrays.pm_vm_count[pm_id] -= 1
        self.arrays.mark_placement_dirty()
        return pm_id

    def move(self, vm_id: int, dest_pm_id: int) -> int:
        """Relocate a VM; returns the source PM id.

        Raises :class:`CapacityError` if the destination lacks RAM.  A
        move to the VM's current host is a no-op.  RAM is checked once,
        before the VM leaves its source: a move costs one rebuild of the
        RAM aggregate, at the next query.
        """
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
        self._attach(vm_id, dest_pm_id)
        return source

    def sleep_idle_hosts(self) -> List[int]:
        """Put every empty host to sleep; returns the ids put to sleep."""
        arrays = self.arrays
        idle = np.flatnonzero(~arrays.active_pm_mask() & ~arrays.pm_asleep)
        arrays.pm_asleep[idle] = True
        return idle.tolist()

    # ------------------------------------------------------------------
    # CPU sharing
    # ------------------------------------------------------------------
    def share_cpu(self, migrating_vm_ids: Iterable[int] = ()) -> None:
        """Compute delivered utilization for every VM this step.

        Each host grants demand in full when total demand fits its
        capacity, and scales all demands by ``capacity / demand``
        otherwise (proportional fair sharing).  VMs in ``migrating_vm_ids``
        additionally lose :attr:`migration_overhead_fraction` of their
        demand — normally applied by the
        :class:`repro.cloudsim.migration.MigrationEngine`, which passes
        in-flight VMs to :meth:`apply_migration_overhead` itself; the
        parameter here serves callers that want one-shot sharing.
        """
        migrating = set(migrating_vm_ids)
        arrays = self.arrays
        total_demand = arrays.pm_demand_mips()
        # scale = capacity / demand on oversubscribed hosts, 1 elsewhere.
        # (demand > capacity > 0 implies demand > 0, so the reference
        # implementation's "demand <= 0" guard is subsumed.)
        scale = np.ones(arrays.num_pms, dtype=np.float64)
        oversubscribed = total_demand > arrays.pm_mips
        np.divide(
            arrays.pm_mips, total_demand, out=scale, where=oversubscribed
        )
        placed = arrays.host_of >= 0
        # Unplaced VMs receive nothing; host_of is -1 there, so mask the
        # gathered scale before it is used.
        np.multiply(
            arrays.vm_demand,
            scale[arrays.host_of],
            out=arrays.vm_delivered,
            where=placed,
        )
        arrays.vm_delivered[~placed] = 0.0
        arrays.mark_delivered_dirty()
        if migrating:
            self.apply_migration_overhead(migrating)

    def apply_migration_overhead(
        self, vm_ids: Iterable[int], overhead_fraction: Optional[float] = None
    ) -> None:
        """Reduce delivered CPU of in-flight VMs by the migration overhead.

        ``overhead_fraction`` defaults to the datacenter's configured
        :attr:`migration_overhead_fraction` (historically this default
        was a hardcoded ``0.10``, silently ignoring the configured
        value).
        """
        if overhead_fraction is None:
            overhead_fraction = self.migration_overhead_fraction
        arrays = self.arrays
        keep = 1.0 - overhead_fraction
        for vm_id in vm_ids:
            self.vm(vm_id)
            arrays.vm_delivered[vm_id] *= keep
        arrays.mark_delivered_dirty()

    def is_overloaded(self, pm_id: int, beta: float) -> bool:
        """Whether the host's demanded load exceeds the ``beta`` threshold."""
        return self.demanded_utilization(pm_id) > beta

    def overloaded_pm_ids(self, beta: float) -> List[int]:
        """Hosts whose demanded load exceeds the ``beta`` threshold."""
        return np.flatnonzero(self.arrays.overloaded_pm_mask(beta)).tolist()
