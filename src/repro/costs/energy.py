"""Energy-consumption cost (Section 3.2).

Eq. (2) discretizes Eq. (1): the cost up to step ``T`` is
``c_p * sum_k sum_i y_i(k tau) * tau`` where ``y_i`` is the power drawn by
host ``i`` (from its SPECpower curve at its delivered utilization) and
``tau`` is the observation interval.
"""

from __future__ import annotations

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
        arrays = getattr(datacenter, "arrays", None)
        if arrays is not None:
            # Batched path: evaluate each power model once over its
            # hosts, zero sleeping hosts, and total left-to-right
            # (cumsum) in host-id order — bit-identical to the loop.
            utilization = arrays.pm_delivered_utilization()
            watts_by_pm = np.zeros(arrays.num_pms, dtype=np.float64)
            for model, pm_ids in datacenter.power_groups():
                watts_by_pm[pm_ids] = model.power_batch(utilization[pm_ids])
            watts_by_pm[arrays.pm_asleep] = 0.0
            watts = float(np.cumsum(watts_by_pm)[-1]) if arrays.num_pms else 0.0
        else:
            watts = 0.0
            for pm in datacenter.pms:
                utilization = datacenter.delivered_utilization(pm.pm_id)
                watts += pm.power(utilization)
        joules = watts * interval_seconds
        usd = joules * self._config.energy_price_usd_per_watt_second
        self._total_joules += joules
        self._total_usd += usd
        return usd
