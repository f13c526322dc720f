"""Aggregate operation cost (Eq. 6).

``C(s_{t-1}, s_t) = ΔC_p + ΔC_v`` — the energy cost plus SLA-violation
cost incurred in one observation interval.  This is the per-stage cost the
MDP of Section 4 minimizes and the quantity Figures 2(a)–5(a) plot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.sla import SlaAccountant
from repro.config import CostConfig
from repro.costs.energy import EnergyCostModel
from repro.costs.sla_cost import SlaCostModel


@dataclass(frozen=True)
class StepCost:
    """Cost of one observation interval, in USD."""

    energy_usd: float
    sla_usd: float

    @property
    def total_usd(self) -> float:
        return self.energy_usd + self.sla_usd


class OperationCostModel:
    """Combines the energy and SLA models into Eq. (6)'s per-stage cost."""

    def __init__(self, config: CostConfig) -> None:
        self.energy = EnergyCostModel(config)
        self.sla = SlaCostModel(config)

    @property
    def total_usd(self) -> float:
        """Cumulative operation cost so far."""
        return self.energy.total_usd + self.sla.total_usd

    def step_cost(
        self,
        datacenter: Datacenter,
        accountant: SlaAccountant,
        interval_seconds: float,
    ) -> StepCost:
        """Charge one interval against both sub-models."""
        energy_usd = self.energy.step_cost(datacenter, interval_seconds)
        sla_usd = self.sla.step_cost(accountant, interval_seconds)
        return StepCost(energy_usd=energy_usd, sla_usd=sla_usd)
