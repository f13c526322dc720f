"""Object-formula oracles of the step pipeline's array stages.

Each is the per-entity formula a stage computed before the
struct-of-arrays rewrite, written against the generic datacenter API so
it runs on either datacenter; the array stages of ``observe_state``,
the energy cost, the mean-utilization metric, ``first_fit_ram``, the
SLA accountant (:class:`SlaOracle`) and the monitor
(:class:`DequeMonitor`) must agree with them bit for bit.  Hosted VMs
are visited in ascending id order, the accumulation order the array
code reproduces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Tuple

from repro.mdp.state import DatacenterState


def observe_state(datacenter, step: int) -> DatacenterState:
    """Snapshot the current configuration and workload vector."""
    placement = tuple(sorted(datacenter.placement().items()))
    workloads = tuple(vm.demanded_utilization for vm in datacenter.vms)
    host_utilization = tuple(
        datacenter.demanded_utilization(pm.pm_id) for pm in datacenter.pms
    )
    active = tuple(vm.vm_id for vm in datacenter.vms if vm.is_active)
    return DatacenterState(
        step=step,
        placement=placement,
        workloads=workloads,
        host_utilization=host_utilization,
        active_vms=active,
    )


def total_watts(datacenter) -> float:
    """Fleet power draw at each host's delivered utilization."""
    watts = 0.0
    for pm in datacenter.pms:
        utilization = datacenter.delivered_utilization(pm.pm_id)
        watts += pm.power(utilization)
    return watts


def mean_active_host_utilization(datacenter) -> float:
    active = datacenter.active_pm_ids()
    if not active:
        return 0.0
    total = sum(
        min(1.0, datacenter.demanded_utilization(pm_id)) for pm_id in active
    )
    return total / len(active)


def first_fit_ram(datacenter, vm_id: int) -> bool:
    """Place ``vm_id`` on the lowest-id host with room for its RAM;
    return whether it was placed."""
    for pm in datacenter.pms:
        if datacenter.fits(vm_id, pm.pm_id):
            datacenter.place(vm_id, pm.pm_id)
            return True
    return False


@dataclass
class HostRecord:
    active_seconds: float = 0.0
    overload_seconds: float = 0.0


@dataclass
class VmRecord:
    window_steps: int
    requested_seconds: float = 0.0
    migration_downtime_seconds: float = 0.0
    overload_downtime_seconds: float = 0.0
    window: Deque[Tuple[float, float]] = field(default_factory=deque)

    def record_step(self, downtime: float, requested: float) -> None:
        self.window.append((downtime, requested))
        while len(self.window) > self.window_steps:
            self.window.popleft()

    @property
    def downtime_fraction(self) -> float:
        requested = sum(r for _, r in self.window)
        if requested <= 0.0:
            return 0.0
        downtime = sum(d for d, _ in self.window)
        return downtime / requested


class SlaOracle:
    """The SLA accountant as per-record scalars and deque windows."""

    def __init__(self, beta: float, window_steps: int) -> None:
        self.beta = beta
        self.window_steps = window_steps
        self.hosts: Dict[int, HostRecord] = {}
        self.vms: Dict[int, VmRecord] = {}

    def host_record(self, pm_id: int) -> HostRecord:
        return self.hosts.setdefault(pm_id, HostRecord())

    def vm_record(self, vm_id: int) -> VmRecord:
        return self.vms.setdefault(vm_id, VmRecord(self.window_steps))

    def observe_step(
        self,
        datacenter,
        interval_seconds: float,
        migration_downtime: Mapping[int, float] = (),
    ) -> None:
        mig: Dict[int, float] = dict(migration_downtime)
        step_downtime: Dict[int, float] = {}
        step_requested: Dict[int, float] = {}
        for pm_id in datacenter.active_pm_ids():
            record = self.host_record(pm_id)
            record.active_seconds += interval_seconds
            overloaded = datacenter.is_overloaded(pm_id, self.beta)
            if overloaded:
                record.overload_seconds += interval_seconds
            for vm_id in sorted(datacenter.vms_on(pm_id)):
                vm = datacenter.vm(vm_id)
                if not vm.is_active:
                    continue
                vm_rec = self.vm_record(vm_id)
                vm_rec.requested_seconds += interval_seconds
                step_requested[vm_id] = interval_seconds
                if overloaded:
                    vm_rec.overload_downtime_seconds += interval_seconds
                    step_downtime[vm_id] = (
                        step_downtime.get(vm_id, 0.0) + interval_seconds
                    )
        for vm_id, seconds in mig.items():
            self.vm_record(vm_id).migration_downtime_seconds += seconds
            step_downtime[vm_id] = step_downtime.get(vm_id, 0.0) + seconds
            step_requested.setdefault(vm_id, interval_seconds)
        for vm_id, requested in step_requested.items():
            downtime = min(step_downtime.get(vm_id, 0.0), requested)
            self.vm_record(vm_id).record_step(downtime, requested)


class DequeMonitor:
    """The utilization monitor as one bounded deque per entity."""

    def __init__(self, history_length: int) -> None:
        self._length = history_length
        self._vm_history: Dict[int, Deque[float]] = {}
        self._host_history: Dict[int, Deque[float]] = {}

    def observe(self, datacenter) -> None:
        for vm in datacenter.vms:
            self._vm_history.setdefault(
                vm.vm_id, deque(maxlen=self._length)
            ).append(vm.demanded_utilization)
        for pm in datacenter.pms:
            self._host_history.setdefault(
                pm.pm_id, deque(maxlen=self._length)
            ).append(datacenter.demanded_utilization(pm.pm_id))

    def vm_history(self, vm_id: int) -> List[float]:
        return list(self._vm_history.get(vm_id, ()))

    def host_history(self, pm_id: int) -> List[float]:
        return list(self._host_history.get(pm_id, ()))

    def last_host_utilization(self, pm_id: int, default: float = 0.0) -> float:
        history = self._host_history.get(pm_id)
        if not history:
            return default
        return history[-1]
