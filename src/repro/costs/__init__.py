"""Operation-cost models: energy (Eq. 2), SLA violation (Eq. 3), total (Eq. 6)."""

from repro.costs.energy import EnergyCostModel
from repro.costs.sla_cost import SlaCostModel
from repro.costs.model import OperationCostModel, StepCost

__all__ = [
    "EnergyCostModel",
    "SlaCostModel",
    "OperationCostModel",
    "StepCost",
]
