"""Clairvoyant one-step-lookahead oracle.

Dertouzos & Mok (paper reference [40]) prove optimal online scheduling
is impossible without knowledge of the future — which makes a
*clairvoyant* scheduler the natural reference point: it reads the next
interval's demands straight from the trace and packs against them, so
it never reacts late to a burst.  No online scheduler can use more
information, so its cost anchors regret analysis
(:func:`tests.baselines.regret.regret_curve`) for Megh and the heuristics.

This oracle is deliberately simple (one-step lookahead + PABFD packing
under the overload threshold); it is a strong reference, not a true
offline optimum.  Nothing in ``src/`` depends on it: it is the reference
that ``tests/baselines/test_oracle_regret.py`` holds Megh's learning
against, so it lives with that test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.mmt.placement import power_aware_best_fit
from repro.cloudsim.migration import Migration
from repro.errors import ConfigurationError
from repro.mdp.interfaces import Observation
from repro.workloads.base import Workload


class OracleScheduler:
    """Relieves *tomorrow's* overloads today.

    Args:
        workload: the trace being replayed — the clairvoyance.
        beta: overload threshold to pack under.
        placement_threshold: PABFD fill cap for destinations.
        max_moves_per_step: migration budget (matched to Megh's cap by
            default for a fair comparison).
    """

    name = "Oracle"

    def __init__(
        self,
        workload: Workload,
        beta: float = 0.70,
        placement_threshold: float = 0.5,
        max_moves_per_step: Optional[int] = None,
    ) -> None:
        if not 0 < beta <= 1:
            raise ConfigurationError("beta must be in (0, 1]")
        if not 0 < placement_threshold <= 1:
            raise ConfigurationError("placement threshold must be in (0, 1]")
        if max_moves_per_step is not None and max_moves_per_step < 1:
            raise ConfigurationError("move budget must be >= 1")
        self.workload = workload
        self.beta = beta
        self.placement_threshold = placement_threshold
        self.max_moves_per_step = max_moves_per_step

    @classmethod
    def from_simulation(cls, simulation, **kwargs) -> "OracleScheduler":
        """Build an oracle bound to the simulation's own trace."""
        kwargs.setdefault(
            "beta", simulation.config.datacenter.overload_threshold
        )
        kwargs.setdefault(
            "max_moves_per_step",
            max(1, int(0.02 * simulation.datacenter.num_vms)),
        )
        return cls(simulation.workload, **kwargs)

    def _future_demand_mips(self, datacenter, vm_id: int, step: int) -> float:
        future = min(step + 1, self.workload.num_steps - 1)
        vm = datacenter.vm(vm_id)
        if not self.workload.is_active(vm_id, future):
            return 0.0
        return self.workload.utilization(vm_id, future) * vm.mips

    def decide(self, observation: Observation) -> List[Migration]:
        datacenter = observation.datacenter
        step = observation.step
        # Project each host's demand one step ahead.
        future_demand = {
            pm.pm_id: sum(
                self._future_demand_mips(datacenter, vm_id, step)
                for vm_id in datacenter.vms_on(pm.pm_id)
            )
            for pm in datacenter.pms
        }
        to_move: List[int] = []
        excluded: List[int] = []
        for pm in datacenter.pms:
            capacity = self.beta * pm.mips
            demand = future_demand[pm.pm_id]
            if demand <= capacity:
                continue
            excluded.append(pm.pm_id)
            # Evict the hungriest-tomorrow VMs until under beta tomorrow.
            hosted = sorted(
                datacenter.vms_on(pm.pm_id),
                key=lambda vm_id: -self._future_demand_mips(
                    datacenter, vm_id, step
                ),
            )
            for vm_id in hosted:
                if demand <= capacity:
                    break
                to_move.append(vm_id)
                demand -= self._future_demand_mips(datacenter, vm_id, step)
        if not to_move:
            return []
        if self.max_moves_per_step is not None:
            to_move = to_move[: self.max_moves_per_step]
        plan = power_aware_best_fit(
            datacenter,
            to_move,
            threshold=self.placement_threshold,
            excluded_hosts=excluded,
        )
        return [
            Migration(vm_id=vm_id, dest_pm_id=pm_id)
            for vm_id, pm_id in plan.items()
        ]
