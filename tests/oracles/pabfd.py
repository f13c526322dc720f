"""The per-PM PABFD scan: the oracle of ``power_aware_best_fit``.

For each VM (largest demand first) the scan walks every host in id
order and keeps the strict minimum of :func:`power_increase`, earlier
placements of the same call held as pending load.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


def power_increase(
    datacenter,
    pm_id: int,
    extra_mips: float,
    pending_mips: float = 0.0,
) -> float:
    """Watts added to a host by ``extra_mips`` on top of its demand
    and ``pending_mips`` promised earlier in the same call."""
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


def power_aware_best_fit_scalar(
    datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Sequence[int] = (),
) -> Dict[int, int]:
    """Per-PM PABFD scan; same contract as ``power_aware_best_fit``."""
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
