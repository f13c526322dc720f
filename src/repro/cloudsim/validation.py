"""Data-center invariant checking.

A consistency oracle for tests, debugging sessions, and paranoid
production runs: :func:`check_invariants` verifies the structural
invariants the rest of the system relies on and raises
:class:`InvariantViolation` (with every violation listed) when any is
broken.  ``Simulation.run(validate_every_step=True)`` calls it after
every interval, catching scheduler or engine bugs at the step that
introduced them instead of long after.
"""

from __future__ import annotations

from typing import List

from repro.cloudsim.datacenter import Datacenter
from repro.errors import ReproError

#: Tolerance for demand values that should be zero: workload generators
#: compute utilizations in float arithmetic, so an "inactive" VM may carry
#: a few ULPs of dust rather than an exact 0.0.
DEMAND_EPSILON = 1e-9


class InvariantViolation(ReproError):
    """One or more data-center invariants do not hold."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = violations
        super().__init__(
            "data-center invariants violated:\n  " + "\n  ".join(violations)
        )


def find_violations(datacenter: Datacenter) -> List[str]:
    """Return descriptions of every broken invariant (empty = healthy)."""
    violations: List[str] = []

    # 1. Placement maps are mutually consistent.
    placement = datacenter.placement()
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        for vm_id in datacenter.vms_on(pm.pm_id):
            if placement.get(vm_id) != pm.pm_id:
                violations.append(
                    f"VM {vm_id} listed on PM {pm.pm_id} but host_of says "
                    f"{placement.get(vm_id)}"
                )
    hosted = {
        vm_id
        for pm in datacenter.pms  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        for vm_id in datacenter.vms_on(pm.pm_id)
    }
    for vm_id, pm_id in placement.items():
        if vm_id not in hosted:
            violations.append(
                f"host_of places VM {vm_id} on PM {pm_id} but no host "
                "lists it"
            )

    # 2. A VM appears on at most one host.
    seen = {}
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        for vm_id in datacenter.vms_on(pm.pm_id):
            if vm_id in seen:
                violations.append(
                    f"VM {vm_id} appears on PMs {seen[vm_id]} and {pm.pm_id}"
                )
            seen[vm_id] = pm.pm_id

    # 3. RAM capacity holds on every host.  Recomputed from the
    # membership index rather than via ``ram_used_mb`` so the check stays
    # independent of the datacenter's cached per-PM aggregates.
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        used = sum(
            datacenter.vm(vm_id).ram_mb
            for vm_id in datacenter.vms_on(pm.pm_id)
        )
        if used > pm.ram_mb + 1e-9:
            violations.append(
                f"PM {pm.pm_id} RAM oversubscribed: {used:.1f} of "
                f"{pm.ram_mb:.1f} MB"
            )

    # 4. No host is simultaneously asleep and serving VMs.
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        if pm.asleep and datacenter.vms_on(pm.pm_id):
            violations.append(
                f"PM {pm.pm_id} is asleep but hosts "
                f"{sorted(datacenter.vms_on(pm.pm_id))}"
            )

    # 5. Utilization fields stay inside their domains.
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        if not 0.0 <= vm.demanded_utilization <= 1.0:
            violations.append(
                f"VM {vm.vm_id} demanded utilization out of [0, 1]: "
                f"{vm.demanded_utilization}"
            )
        if vm.delivered_utilization < -1e-9 or (
            vm.delivered_utilization > vm.demanded_utilization + 1e-9
        ):
            violations.append(
                f"VM {vm.vm_id} delivered {vm.delivered_utilization} "
                f"outside [0, demanded {vm.demanded_utilization}]"
            )
        if not 0.0 <= vm.demanded_bandwidth_utilization <= 1.0:
            violations.append(
                f"VM {vm.vm_id} bandwidth utilization out of [0, 1]: "
                f"{vm.demanded_bandwidth_utilization}"
            )
        if not vm.is_active and abs(vm.demanded_utilization) > DEMAND_EPSILON:
            violations.append(
                f"inactive VM {vm.vm_id} demands "
                f"{vm.demanded_utilization}"
            )

    # 6. The struct-of-arrays mirror agrees with the dict/set index.
    arrays = datacenter.arrays
    for vm_id, pm_id in placement.items():
        if int(arrays.host_of[vm_id]) != pm_id:
            violations.append(
                f"arrays.host_of[{vm_id}] = {int(arrays.host_of[vm_id])} "
                f"but placement index says {pm_id}"
            )
    for vm in datacenter.vms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        if vm.vm_id not in placement and int(arrays.host_of[vm.vm_id]) != -1:
            violations.append(
                f"arrays.host_of[{vm.vm_id}] = "
                f"{int(arrays.host_of[vm.vm_id])} but VM is unplaced"
            )
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- validator deliberately re-derives state entity-by-entity
        count = int(arrays.pm_vm_count[pm.pm_id])
        actual = len(datacenter.vms_on(pm.pm_id))
        if count != actual:
            violations.append(
                f"arrays.pm_vm_count[{pm.pm_id}] = {count} but PM hosts "
                f"{actual} VMs"
            )
    return violations


def check_invariants(datacenter: Datacenter) -> None:
    """Raise :class:`InvariantViolation` if any invariant is broken."""
    violations = find_violations(datacenter)
    if violations:
        raise InvariantViolation(violations)
