"""Virtual machine model.

A :class:`VirtualMachine` carries the static resources a user requested
(CPU capacity in MIPS, RAM, network bandwidth) plus per-step dynamic state:
the CPU utilization fraction its workload *demands* and the fraction the
host actually *delivers* (which can be lower when the host is oversubscribed
or the VM is mid-migration).

Since the struct-of-arrays rewrite the dynamic state can live in two
places: a standalone VM keeps plain scalar attributes, while a VM owned
by a :class:`~repro.cloudsim.datacenter.Datacenter` is *bound* to the
datacenter's :class:`~repro.cloudsim.soa.DatacenterArrays` — its dynamic
properties then read and write the shared vectors, so the object API and
the vectorized pipeline always observe the same values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cloudsim.soa import DatacenterArrays


class VirtualMachine:
    """A virtual machine instance.

    Attributes:
        vm_id: unique integer identifier, dense in ``[0, N)``.
        mips: CPU capacity allocated to the VM (million instr. per second).
        ram_mb: RAM allocated to the VM, in megabytes.  Migration time is
            ``ram / bandwidth`` (Section 3.3).
        bandwidth_mbps: network bandwidth available for migrating this VM,
            in megabits per second.
        demanded_utilization: fraction of ``mips`` the workload currently
            asks for (set each step from the trace).
        delivered_utilization: fraction of ``mips`` the host actually
            granted this step.
    """

    def __init__(
        self,
        vm_id: int,
        mips: float,
        ram_mb: float,
        bandwidth_mbps: float,
        demanded_utilization: float = 0.0,
        delivered_utilization: float = 0.0,
        _active: bool = True,
    ) -> None:
        if vm_id < 0:
            raise ConfigurationError("vm_id must be >= 0")
        if mips <= 0:
            raise ConfigurationError("VM mips must be > 0")
        if ram_mb <= 0:
            raise ConfigurationError("VM ram must be > 0")
        if bandwidth_mbps <= 0:
            raise ConfigurationError("VM bandwidth must be > 0")
        self.vm_id = vm_id
        self.mips = mips
        self.ram_mb = ram_mb
        self.bandwidth_mbps = bandwidth_mbps
        self._arrays: Optional["DatacenterArrays"] = None
        self._index = -1
        self._demand = 0.0
        self._delivered = delivered_utilization
        self._active_flag = _active
        self.set_demand(demanded_utilization)

    def _bind(self, arrays: "DatacenterArrays", index: int) -> None:
        """Move this VM's dynamic state into a datacenter's arrays.

        Called by ``Datacenter.__init__``; carries the current scalar
        state over so binding is observationally a no-op.
        """
        arrays.vm_mips[index] = self.mips
        arrays.vm_ram_mb[index] = self.ram_mb
        arrays.vm_bandwidth_mbps[index] = self.bandwidth_mbps
        arrays.vm_demand[index] = self._demand
        arrays.vm_delivered[index] = self._delivered
        arrays.vm_active[index] = self._active_flag
        arrays.mark_placement_dirty()
        self._arrays = arrays
        self._index = index

    def __repr__(self) -> str:
        return (
            f"VirtualMachine(vm_id={self.vm_id}, mips={self.mips}, "
            f"ram_mb={self.ram_mb}, bandwidth_mbps={self.bandwidth_mbps}, "
            f"demanded_utilization={self.demanded_utilization}, "
            f"delivered_utilization={self.delivered_utilization})"
        )

    # ------------------------------------------------------------------
    # Dynamic state (array-backed when bound)
    # ------------------------------------------------------------------
    @property
    def demanded_utilization(self) -> float:
        arrays = self._arrays
        if arrays is None:
            return self._demand
        return float(arrays.vm_demand[self._index])

    @demanded_utilization.setter
    def demanded_utilization(self, value: float) -> None:
        arrays = self._arrays
        if arrays is None:
            self._demand = value
        else:
            arrays.vm_demand[self._index] = value
            arrays.mark_demand_dirty()

    @property
    def delivered_utilization(self) -> float:
        arrays = self._arrays
        if arrays is None:
            return self._delivered
        return float(arrays.vm_delivered[self._index])

    @delivered_utilization.setter
    def delivered_utilization(self, value: float) -> None:
        arrays = self._arrays
        if arrays is None:
            self._delivered = value
        else:
            arrays.vm_delivered[self._index] = value
            arrays.mark_delivered_dirty()

    @property
    def _active(self) -> bool:
        """Raw active flag (no zeroing side effects; see ``set_active``)."""
        arrays = self._arrays
        if arrays is None:
            return self._active_flag
        return bool(arrays.vm_active[self._index])

    @_active.setter
    def _active(self, value: bool) -> None:
        arrays = self._arrays
        if arrays is None:
            self._active_flag = value
        else:
            arrays.vm_active[self._index] = value
            arrays.mark_activity_dirty()

    @property
    def is_active(self) -> bool:
        """Whether the VM currently has a running workload."""
        return self._active

    def set_demand(self, utilization: float) -> None:
        """Set the workload's demanded CPU fraction for this step."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        self.demanded_utilization = utilization

    def set_active(self, active: bool) -> None:
        """Mark the VM as running a task (Google-style traces) or idle."""
        arrays = self._arrays
        if arrays is None:
            self._active_flag = active
            if not active:
                self._demand = 0.0
                self._delivered = 0.0
        else:
            index = self._index
            arrays.vm_active[index] = active
            if not active:
                arrays.vm_demand[index] = 0.0
                arrays.vm_delivered[index] = 0.0
            arrays.mark_activity_dirty()

    @property
    def demanded_mips(self) -> float:
        """Absolute MIPS the workload is asking for this step."""
        return self.demanded_utilization * self.mips

    @property
    def delivered_mips(self) -> float:
        """Absolute MIPS the host granted this step."""
        return self.delivered_utilization * self.mips

    def migration_time_seconds(self) -> float:
        """Expected live-migration duration ``TM = M / B`` (Section 3.3).

        RAM is in megabytes and bandwidth in megabits/s, so the factor 8
        converts bytes to bits.
        """
        return self.ram_mb * 8.0 / self.bandwidth_mbps
