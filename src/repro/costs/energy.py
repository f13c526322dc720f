"""Energy-consumption cost (Section 3.2).

Eq. (2) discretizes Eq. (1): the cost up to step ``T`` is
``c_p * sum_k sum_i y_i(k tau) * tau`` where ``y_i`` is the power drawn by
host ``i`` (from its SPECpower curve at its delivered utilization) and
``tau`` is the observation interval.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.config import CostConfig
from repro.errors import ConfigurationError


class EnergyCostModel:
    """Accumulates the data center's energy cost step by step."""

    def __init__(self, config: CostConfig) -> None:
        self._config = config
        self._total_joules = 0.0
        self._total_usd = 0.0

    @property
    def total_joules(self) -> float:
        """Cumulative energy drawn so far."""
        return self._total_joules

    @property
    def total_usd(self) -> float:
        """Cumulative energy cost so far (``C_p`` of Eq. 2)."""
        return self._total_usd

    def state(self) -> Dict[str, float]:
        """Running totals as ``{"joules", "usd"}``; :meth:`restore`
        inverts it."""
        return {"joules": self._total_joules, "usd": self._total_usd}

    def restore(self, state: Dict[str, float]) -> None:
        """Resume the running totals :meth:`state` captured."""
        self._total_joules = float(state["joules"])
        self._total_usd = float(state["usd"])

    def step_cost(
        self, datacenter: Datacenter, interval_seconds: float
    ) -> float:
        """Charge one interval and return its incremental cost in USD.

        Power is evaluated at each host's *delivered* utilization, so an
        oversubscribed host is charged at 100 % (its CPU is saturated) and
        a sleeping host is charged nothing.
        """
        if interval_seconds <= 0:
            raise ConfigurationError("interval must be > 0")
        # Each power model is evaluated once over its hosts, sleeping
        # hosts are zeroed, and the total runs left-to-right (cumsum) in
        # host-id order: the accumulation order of a per-host loop.
        arrays = datacenter.arrays
        utilization = arrays.pm_delivered_utilization()
        watts_by_pm = np.zeros(arrays.num_pms, dtype=np.float64)
        for model, pm_ids in datacenter.power_groups():
            watts_by_pm[pm_ids] = model.power_batch(utilization[pm_ids])
        watts_by_pm[arrays.pm_asleep] = 0.0
        watts = float(np.cumsum(watts_by_pm)[-1]) if arrays.num_pms else 0.0
        joules = watts * interval_seconds
        usd = joules * self._config.energy_price_usd_per_watt_second
        self._total_joules += joules
        self._total_usd += usd
        return usd
