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
Both phases' PABFD calls run in one compiled call when ``REPRO_KERNEL``
builds the kernel library (``CompiledPlacement``), eagerly otherwise.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cloudsim.migration import Migration
from repro.baselines.mmt.detection import OverloadDetector, make_detector
from repro.baselines.mmt.placement import (
    CompiledPlacement,
    PlacementContext,
    hosts_by_utilization,
    power_aware_best_fit,
)
from repro.baselines.mmt.selection import MinimumMigrationTimeSelection
from repro.core import kern
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
        # The compiled placement pass when REPRO_KERNEL builds the kernel
        # library; else (and for power models it lacks) the eager path.
        kernel = kern.make_backend(kern.resolve_mode())
        self._compiled = None if kernel is None else CompiledPlacement(kernel)

    def decide(self, observation: Observation) -> List[Migration]:
        datacenter = observation.datacenter
        # The detector judges every host at once, once per step; both
        # phases read the same flags.
        history = observation.monitor.host_matrix()
        if history.shape[0] == 0:  # nothing observed yet: no host flags
            history = np.empty((0, datacenter.num_pms), dtype=np.float64)
        overloaded = self.detector.is_overloaded(history)
        to_place, overloaded_hosts = self._relief_sources(
            datacenter,
            overloaded.tolist(),
            self.detector.threshold(history).tolist(),
        )
        candidates = self._evacuation_candidates(datacenter, overloaded)
        if self._compiled is not None:
            flat = self._compiled.plan(
                datacenter, to_place, overloaded_hosts, candidates, self.placement_threshold
            )
            if flat is not None:
                pairs = iter(flat)
                return [Migration(vm_id=vm, dest_pm_id=pm) for vm, pm in zip(pairs, pairs)]
        return self._plan_eager(datacenter, to_place, overloaded_hosts, candidates)

    def _plan_eager(
        self,
        datacenter,
        to_place: List[int],
        overloaded_hosts: List[int],
        candidates: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> List[Migration]:
        """The placement pass through :func:`power_aware_best_fit`, the
        compiled pass's reference."""
        hosts, by_host, bounds = candidates
        evacuations = [
            (pm_id, by_host[bounds[pm_id] : bounds[pm_id + 1]].tolist())
            for pm_id in hosts.tolist()
        ]
        # Planning leaves the datacenter untouched, so every PABFD call
        # of this step shares one set of per-host invariants and the
        # primed scores of every VM the step may place.
        context = PlacementContext(datacenter)
        context.prime(
            to_place + [vm_id for _, vm_ids in evacuations for vm_id in vm_ids],
            self.placement_threshold,
        )
        threshold = self.placement_threshold
        placed: List[Tuple[int, int]] = []
        if to_place:
            plan = power_aware_best_fit(datacenter, to_place, threshold, overloaded_hosts, context)
            placed.extend(plan.items())
        evacuated = np.zeros(datacenter.num_pms, dtype=bool)
        for pm_id, vm_ids in evacuations:
            # The source host is unscored in its own VMs' primed rows,
            # so only the hosts evacuated so far are excluded.
            plan = power_aware_best_fit(
                datacenter, vm_ids, threshold, evacuated, context
            )
            # Only evacuate a host when *every* VM can leave; otherwise
            # the host stays awake and the moves are wasted.
            if len(plan) == len(vm_ids):
                evacuated[pm_id] = True
                placed.extend(plan.items())
        return [
            Migration(vm_id=vm_id, dest_pm_id=pm_id) for vm_id, pm_id in placed
        ]

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

    # ------------------------------------------------------------------
    def _evacuation_candidates(
        self, datacenter, overloaded: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hosts, by_host, bounds)``: the non-overloaded active hosts
        at or below the underload threshold, least loaded first, and
        the placed VMs by host (``p``'s, ascending, at
        ``by_host[bounds[p] : bounds[p + 1]]``)."""
        arrays = datacenter.arrays
        placed = np.flatnonzero(arrays.host_of >= 0)
        host_of = arrays.host_of[placed]
        by_host = placed[np.argsort(host_of, kind="stable")]
        bounds = np.zeros(arrays.num_pms + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(host_of, minlength=arrays.num_pms), out=bounds[1:]
        )
        ranked = hosts_by_utilization(datacenter)
        if not self.consolidate:
            ranked = ranked[:0]
        # The historical walk stopped at the first host above the
        # threshold (so a NaN past it still counts, as it did).
        above = np.flatnonzero(
            arrays.pm_demand_utilization()[ranked] > self.underload_threshold
        )
        hosts = ranked[: above[0] if above.shape[0] else ranked.shape[0]]
        return hosts[~overloaded[hosts]], by_host, bounds
