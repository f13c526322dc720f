"""The complete MMT dynamic-consolidation scheduler.

Per step, exactly as in Beloglazov & Buyya's two-phase loop:

1. **Overload relief** — for every host the detector flags, evict VMs in
   minimum-migration-time order until the host's projected
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

from typing import List, Tuple

import numpy as np

from repro.cloudsim.migration import Migration
from repro.baselines.mmt.detection import OverloadDetector, make_detector
from repro.baselines.mmt.placement import (
    PlacementContext,
    hosts_by_utilization,
    power_aware_best_fit,
)
from repro.baselines.mmt.selection import MinimumMigrationTimeSelection
from repro.mdp.interfaces import Observation


class MMTScheduler:
    """An MMT-family scheduler: ``<detector>-MMT``.

    Args:
        detector: overload-detection policy, or a paper name
            ("THR", "IQR", "MAD", "LR", "LRR").
        placement_threshold: destination hosts are filled at most to this
            demanded-utilization fraction.
        consolidate: run the underload-consolidation phase.
        underload_threshold: hosts at or below this utilization are
            consolidation sources.
    """

    def __init__(
        self,
        detector: OverloadDetector | str = "THR",
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
        self.selection = MinimumMigrationTimeSelection()
        self.placement_threshold = placement_threshold
        self.consolidate = consolidate
        self.underload_threshold = underload_threshold
        self.name = f"{detector.name}-{self.selection.name}"

    def decide(self, observation: Observation) -> List[Migration]:
        datacenter = observation.datacenter
        # The detector judges every host at once, once per step; both
        # phases read the same flags.
        history = observation.monitor.host_matrix()
        if history.shape[0] == 0:  # nothing observed yet: no host flags
            history = np.empty((0, datacenter.num_pms), dtype=np.float64)
        overloaded = self.detector.is_overloaded(history).tolist()
        to_place, overloaded_hosts = self._relief_sources(
            datacenter, overloaded, self.detector.threshold(history).tolist()
        )
        evacuations = (
            self._evacuation_candidates(datacenter, overloaded)
            if self.consolidate
            else []
        )
        # Planning leaves the datacenter untouched, so every PABFD call
        # of this step shares one set of per-host invariants and the
        # primed scores of every VM the step may place.
        context = PlacementContext(datacenter)
        context.prime(
            to_place + [vm_id for _, vm_ids in evacuations for vm_id in vm_ids],
            self.placement_threshold,
        )
        migrations = self._relieve_overloads(
            datacenter, to_place, overloaded_hosts, context
        )
        migrations.extend(
            self._consolidate_underloads(datacenter, evacuations, context)
        )
        return migrations

    # ------------------------------------------------------------------
    def _relief_sources(
        self,
        datacenter,
        overloaded: List[bool],
        thresholds: List[float],
    ) -> Tuple[List[int], List[int]]:
        """VMs to evict from overloaded hosts, and those hosts."""
        to_place: List[int] = []
        overloaded_hosts: List[int] = []
        for pm_id in datacenter.active_pm_ids():
            if not overloaded[pm_id]:
                continue
            overloaded_hosts.append(pm_id)
            pm = datacenter.pm(pm_id)
            demand = datacenter.demanded_mips(pm_id)
            candidates = self.selection.select(
                datacenter, sorted(datacenter.vms_on(pm_id))
            )
            for vm_id in candidates:
                if demand <= thresholds[pm_id] * pm.mips:
                    break
                to_place.append(vm_id)
                demand -= datacenter.vm(vm_id).demanded_mips
        return to_place, overloaded_hosts

    def _relieve_overloads(
        self,
        datacenter,
        to_place: List[int],
        overloaded_hosts: List[int],
        context: PlacementContext,
    ) -> List[Migration]:
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
    def _evacuation_candidates(
        self, datacenter, overloaded: List[bool]
    ) -> List[Tuple[int, List[int]]]:
        """Non-overloaded, non-empty underloaded hosts and their VMs,
        least loaded first."""
        candidates: List[Tuple[int, List[int]]] = []
        for pm_id in hosts_by_utilization(datacenter):
            utilization = datacenter.demanded_utilization(pm_id)
            if utilization > self.underload_threshold:
                break
            if overloaded[pm_id]:
                continue
            vm_ids = sorted(datacenter.vms_on(pm_id))
            if vm_ids:
                candidates.append((pm_id, vm_ids))
        return candidates

    def _consolidate_underloads(
        self,
        datacenter,
        candidates: List[Tuple[int, List[int]]],
        context: PlacementContext,
    ) -> List[Migration]:
        migrations: List[Migration] = []
        evacuated = np.zeros(datacenter.num_pms, dtype=bool)
        for pm_id, vm_ids in candidates:
            # The source host is unscored in its own VMs' primed rows,
            # so only the hosts evacuated so far are excluded.
            plan = power_aware_best_fit(
                datacenter,
                vm_ids,
                threshold=self.placement_threshold,
                excluded_hosts=evacuated,
                context=context,
            )
            if len(plan) != len(vm_ids):
                # Only evacuate a host when *every* VM can leave;
                # otherwise the host stays awake and the moves are wasted.
                continue
            evacuated[pm_id] = True
            migrations.extend(
                Migration(vm_id=vm_id, dest_pm_id=dest)
                for vm_id, dest in plan.items()
            )
        return migrations
