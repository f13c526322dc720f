"""The complete MMT dynamic-consolidation scheduler.

Per step, exactly as in Beloglazov & Buyya's two-phase loop:

1. **Overload relief** — for every host the detector flags, evict VMs in
   selection order (MMT by default) until the host's projected
   utilization drops below the detector's threshold; destinations come
   from PABFD.
2. **Underload consolidation** — visit non-overloaded active hosts from
   least loaded upwards; if *all* of a host's VMs can be placed elsewhere
   (without overloading the destinations), migrate them all so the host
   can sleep.

The greedy, per-step nature of both phases is what produces the high
migration counts and cost variance the paper contrasts Megh with.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cloudsim.migration import Migration
from repro.baselines.mmt.detection import OverloadDetector, make_detector
from repro.baselines.mmt.placement import (
    PlacementContext,
    hosts_by_utilization,
    power_aware_best_fit,
)
from repro.baselines.mmt.selection import (
    MinimumMigrationTimeSelection,
    VmSelectionPolicy,
)
from repro.mdp.interfaces import Observation


class MMTScheduler:
    """An MMT-family scheduler: ``<detector>-MMT``.

    Args:
        detector: overload-detection policy, or a paper name
            ("THR", "IQR", "MAD", "LR", "LRR").
        selection: VM-selection policy (default minimum migration time).
        placement_threshold: destination hosts are filled at most to this
            demanded-utilization fraction.
        consolidate: run the underload-consolidation phase.
        underload_threshold: hosts at or below this utilization are
            consolidation sources.
    """

    def __init__(
        self,
        detector: OverloadDetector | str = "THR",
        selection: Optional[VmSelectionPolicy] = None,
        placement_threshold: float = 0.70,
        consolidate: bool = True,
        underload_threshold: float = 0.25,
        **detector_kwargs,
    ) -> None:
        if isinstance(detector, str):
            detector = make_detector(detector, **detector_kwargs)
        elif detector_kwargs:
            raise TypeError(
                "detector kwargs only apply when building by name"
            )
        self.detector = detector
        self.selection = selection or MinimumMigrationTimeSelection()
        self.placement_threshold = placement_threshold
        self.consolidate = consolidate
        self.underload_threshold = underload_threshold
        self.name = f"{detector.name}-{self.selection.name}"

    def decide(self, observation: Observation) -> List[Migration]:
        # History-based selection policies (MC) bind to the simulation's
        # monitor on first use.
        if getattr(self.selection, "monitor", ...) is None:
            self.selection.monitor = observation.monitor
        # Planning leaves the datacenter untouched, so every PABFD call
        # of this step shares one set of per-host invariants (none on
        # the reference object backend, which plans with the scan).
        datacenter = observation.datacenter
        context = (
            None
            if getattr(datacenter, "arrays", None) is None
            else PlacementContext(datacenter)
        )
        migrations = self._relieve_overloads(observation, context)
        if self.consolidate:
            migrations.extend(
                self._consolidate_underloads(observation, context)
            )
        return migrations

    # ------------------------------------------------------------------
    def _relieve_overloads(
        self,
        observation: Observation,
        context: Optional[PlacementContext],
    ) -> List[Migration]:
        datacenter = observation.datacenter
        monitor = observation.monitor
        to_place: List[int] = []
        overloaded_hosts: List[int] = []
        for pm_id in datacenter.active_pm_ids():
            history = monitor.host_history(pm_id)
            if not self.detector.is_overloaded(history):
                continue
            overloaded_hosts.append(pm_id)
            threshold = self.detector.threshold(history)
            pm = datacenter.pm(pm_id)
            demand = datacenter.demanded_mips(pm_id)
            candidates = self.selection.select(
                datacenter, sorted(datacenter.vms_on(pm_id))
            )
            for vm_id in candidates:
                if demand <= threshold * pm.mips:
                    break
                to_place.append(vm_id)
                demand -= datacenter.vm(vm_id).demanded_mips
        if not to_place:
            return []
        plan = power_aware_best_fit(
            datacenter,
            to_place,
            threshold=self.placement_threshold,
            excluded_hosts=overloaded_hosts,
            context=context,
        )
        return [
            Migration(vm_id=vm_id, dest_pm_id=pm_id)
            for vm_id, pm_id in plan.items()
        ]

    # ------------------------------------------------------------------
    def _consolidate_underloads(
        self,
        observation: Observation,
        context: Optional[PlacementContext],
    ) -> List[Migration]:
        datacenter = observation.datacenter
        monitor = observation.monitor
        migrations: List[Migration] = []
        evacuated: List[int] = []
        for pm_id in hosts_by_utilization(datacenter):
            utilization = datacenter.demanded_utilization(pm_id)
            if utilization > self.underload_threshold:
                break
            history = monitor.host_history(pm_id)
            if self.detector.is_overloaded(history):
                continue
            vm_ids = sorted(datacenter.vms_on(pm_id))
            if not vm_ids:
                continue
            plan = power_aware_best_fit(
                datacenter,
                vm_ids,
                threshold=self.placement_threshold,
                excluded_hosts=[pm_id, *evacuated],
                context=context,
            )
            if len(plan) != len(vm_ids):
                # Only evacuate a host when *every* VM can leave;
                # otherwise the host stays awake and the moves are wasted.
                continue
            evacuated.append(pm_id)
            migrations.extend(
                Migration(vm_id=vm_id, dest_pm_id=dest)
                for vm_id, dest in plan.items()
            )
        return migrations

