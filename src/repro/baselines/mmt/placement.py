"""Power-aware best-fit-decreasing placement (PABFD).

Given VMs to place, PABFD sorts them by CPU demand (decreasing) and puts
each on the host whose power draw increases the least, among hosts with
enough free RAM whose post-placement utilization stays under the safety
threshold.  This is the placement stage shared by every MMT variant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cloudsim.datacenter import Datacenter


def power_increase(
    datacenter: Datacenter,
    pm_id: int,
    extra_mips: float,
    pending_mips: float = 0.0,
) -> float:
    """Watts added to a host by ``extra_mips`` more demand.

    ``pending_mips`` accounts for demand already promised to the host by
    earlier placements within the same planning round.
    """
    pm = datacenter.pm(pm_id)
    before = min(
        1.0, (datacenter.demanded_mips(pm_id) + pending_mips) / pm.mips
    )
    after = min(
        1.0,
        (datacenter.demanded_mips(pm_id) + pending_mips + extra_mips)
        / pm.mips,
    )
    wake_cost = pm.power_model.power(0.0) if pm.asleep else 0.0
    return (
        pm.power_model.power(after) - pm.power_model.power(before) + wake_cost
    )


class PlacementContext:
    """Per-host PABFD invariants, built once per planning round.

    Planning never mutates the datacenter and every PABFD call starts
    from zero pending commitments, so the per-host vectors below are the
    same for every call of one ``decide()``: free RAM, demanded MIPS,
    capacity, the wake cost of sleeping hosts (``P(0)``) and each host's
    "before" power ``P(min(1, demand / mips))``.  Build a fresh context
    whenever the datacenter's placement or demand may have changed.
    """

    def __init__(self, datacenter: Datacenter) -> None:
        arrays = datacenter.arrays
        self.ram_free = arrays.pm_ram_free_mb()
        self.pm_demand = arrays.pm_demand_mips()
        self.pm_mips = arrays.pm_mips
        self.groups = datacenter.power_groups()
        utilization = np.minimum(1.0, self.pm_demand / self.pm_mips)
        self.before = np.empty(arrays.num_pms, dtype=np.float64)
        self.wake = np.zeros(arrays.num_pms, dtype=np.float64)
        # Group index per host: one power_batch per group scores a VM.
        self.group_of = np.empty(arrays.num_pms, dtype=np.int64)
        for index, (model, pm_ids) in enumerate(self.groups):
            self.group_of[pm_ids] = index
            self.before[pm_ids] = model.power_batch(utilization[pm_ids])
            self.wake[pm_ids[arrays.pm_asleep[pm_ids]]] = model.power(0.0)

    def power(self, pm_ids: np.ndarray, utilization: np.ndarray) -> np.ndarray:
        """Each host's power model evaluated at its ``utilization``."""
        watts = np.empty(pm_ids.size, dtype=np.float64)
        group_of = self.group_of[pm_ids]
        for index, (model, _) in enumerate(self.groups):
            members = group_of == index
            watts[members] = model.power_batch(utilization[members])
        return watts


def power_aware_best_fit(
    datacenter: Datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Sequence[int] = (),
    context: Optional[PlacementContext] = None,
) -> Dict[int, int]:
    """Plan destinations for ``vm_ids`` (PABFD).

    Returns a partial ``vm_id -> pm_id`` map: VMs for which no feasible
    host exists are simply absent (they stay where they are).  The plan
    respects RAM capacity and keeps every destination's demanded
    utilization at or below ``threshold``, accounting for VMs placed
    earlier in the same plan.  ``context`` shares the per-host
    invariants between the calls of one planning round; without it the
    call builds its own.
    """
    arrays = getattr(datacenter, "arrays", None)
    if arrays is None:
        # Reference object-model backend (no struct-of-arrays store):
        # keep the historical per-PM scan.
        return _power_aware_best_fit_scalar(
            datacenter, vm_ids, threshold, excluded_hosts
        )
    if context is None:
        context = PlacementContext(datacenter)
    plan: Dict[int, int] = {}
    num_pms = arrays.num_pms
    # Every host's power increase for a VM is scored in one array pass.
    # The float arithmetic mirrors the per-PM scan operand for operand —
    # load ``(demand + pending) + vm_demand``, room ``free − pending``,
    # increase ``(P(after) − P(before)) + wake`` — and ``np.argmin``
    # keeps the first minimiser like the scan's strict ``<`` in ascending
    # id order, so the plan is bit-identical to the scalar version's.
    ram_free, pm_demand, pm_mips = (
        context.ram_free,
        context.pm_demand,
        context.pm_mips,
    )
    budget = threshold * pm_mips
    blocked = np.zeros(num_pms, dtype=bool)
    blocked[np.asarray(excluded_hosts, dtype=np.int64)] = True
    pending_mips = np.zeros(num_pms, dtype=np.float64)
    pending_ram = np.zeros(num_pms, dtype=np.float64)
    load = pm_demand + pending_mips
    room = ram_free - pending_ram
    before = context.before.copy()
    ordered = sorted(
        vm_ids, key=lambda vm_id: -datacenter.vm(vm_id).demanded_mips
    )
    for vm_id in ordered:
        vm = datacenter.vm(vm_id)
        vm_mips = vm.demanded_mips
        source = datacenter.host_of(vm_id)
        feasible = (
            ~blocked & (vm.ram_mb <= room) & (load + vm_mips <= budget)
        )
        if source is not None:
            feasible[source] = False
        pm_ids = np.flatnonzero(feasible)
        if pm_ids.size == 0:
            continue
        after = np.minimum(1.0, (load[pm_ids] + vm_mips) / pm_mips[pm_ids])
        increase = (
            context.power(pm_ids, after) - before[pm_ids]
        ) + context.wake[pm_ids]
        best_pm = int(pm_ids[np.argmin(increase)])
        plan[vm_id] = best_pm
        pending_mips[best_pm] += vm_mips
        pending_ram[best_pm] += vm.ram_mb
        # Recompute (not ``+=``) the chosen host's entries so they equal
        # the scan's ``demand + pending`` and ``free − pending`` exactly.
        load[best_pm] = pm_demand[best_pm] + pending_mips[best_pm]
        room[best_pm] = ram_free[best_pm] - pending_ram[best_pm]
        model = context.groups[context.group_of[best_pm]][0]
        before[best_pm] = model.power(
            min(1.0, float(load[best_pm] / pm_mips[best_pm]))
        )
    return plan


def _power_aware_best_fit_scalar(
    datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Sequence[int] = (),
) -> Dict[int, int]:
    """Per-PM PABFD scan for backends without ``DatacenterArrays``."""
    excluded = set(excluded_hosts)
    plan: Dict[int, int] = {}
    pending_mips: Dict[int, float] = {}
    pending_ram: Dict[int, float] = {}
    ordered = sorted(
        vm_ids, key=lambda vm_id: -datacenter.vm(vm_id).demanded_mips
    )
    for vm_id in ordered:
        vm = datacenter.vm(vm_id)
        source = datacenter.host_of(vm_id)
        best_pm: Optional[int] = None
        best_increase = float("inf")
        for pm in datacenter.pms:
            pm_id = pm.pm_id
            if pm_id in excluded or pm_id == source:
                continue
            free_ram = datacenter.ram_free_mb(pm_id) - pending_ram.get(
                pm_id, 0.0
            )
            if vm.ram_mb > free_ram:
                continue
            demand_after = (
                datacenter.demanded_mips(pm_id)
                + pending_mips.get(pm_id, 0.0)
                + vm.demanded_mips
            )
            if demand_after > threshold * pm.mips:
                continue
            increase = power_increase(
                datacenter, pm_id, vm.demanded_mips, pending_mips.get(pm_id, 0.0)
            )
            if increase < best_increase:
                best_increase = increase
                best_pm = pm_id
        if best_pm is not None:
            plan[vm_id] = best_pm
            pending_mips[best_pm] = (
                pending_mips.get(best_pm, 0.0) + vm.demanded_mips
            )
            pending_ram[best_pm] = pending_ram.get(best_pm, 0.0) + vm.ram_mb
    return plan


def hosts_by_utilization(datacenter: Datacenter) -> List[int]:
    """Active hosts ordered by demanded utilization, least loaded first.

    One masked stable argsort — ties keep ascending host-id order, the
    same as the historical stable ``sorted`` over ``active_pm_ids()``.
    """
    arrays = getattr(datacenter, "arrays", None)
    if arrays is None:
        return sorted(
            datacenter.active_pm_ids(),
            key=lambda pm_id: datacenter.demanded_utilization(pm_id),
        )
    active = np.flatnonzero(arrays.active_pm_mask())
    util = arrays.pm_demand_utilization()
    return active[np.argsort(util[active], kind="stable")].tolist()
