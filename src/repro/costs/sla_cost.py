"""SLA-violation cost (Section 3.3, Eq. 3).

The paper refunds users a fraction of their payment depending on their
downtime percentage: 16.7 % when it falls in (0.05 %, 0.10 %] and 33.3 %
above 0.10 %.  We accrue the refund per observation interval: a VM whose
*current* downtime percentage sits in a violation band costs the provider
``payback * vm_price_per_hour * (tau / 3600)`` for that interval.  Accruing
per step (rather than re-evaluating a cumulative refund) keeps the
per-stage cost ``ΔC_v`` non-negative, as Eq. (6)'s discussion requires.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cloudsim.sla import SlaAccountant
from repro.config import CostConfig
from repro.errors import ConfigurationError


class SlaCostModel:
    """Accumulates SLA-violation paybacks step by step."""

    def __init__(self, config: CostConfig) -> None:
        self._config = config
        self._total_usd = 0.0

    @property
    def total_usd(self) -> float:
        """Cumulative SLA-violation cost so far (``C_v`` of Eq. 3)."""
        return self._total_usd

    def state(self) -> Dict[str, float]:
        """Running total as ``{"usd"}``; :meth:`restore` inverts it."""
        return {"usd": self._total_usd}

    def restore(self, state: Dict[str, float]) -> None:
        """Resume the running total :meth:`state` captured."""
        self._total_usd = float(state["usd"])

    def payback_rate(self, downtime_fraction: float) -> float:
        """Refund fraction for a VM at the given downtime percentage
        (the scalar form of :meth:`step_cost`'s tier ladder)."""
        if downtime_fraction > self._config.major_downtime_threshold:
            return self._config.payback_major
        if downtime_fraction > self._config.minor_downtime_threshold:
            return self._config.payback_minor
        return 0.0

    def step_cost(
        self, accountant: SlaAccountant, interval_seconds: float
    ) -> float:
        """Charge one interval and return its incremental cost in USD."""
        if interval_seconds <= 0:
            raise ConfigurationError("interval must be > 0")
        hours = interval_seconds / 3600.0
        # A VM without downtime in its window has a fraction of exactly
        # zero, above neither threshold (CostConfig keeps them >= 0), so
        # only the VMs with downtime can owe a refund.  Their terms are
        # totalled left to right in first-seen order.  Every term is a
        # product of factors with a clear sign bit (CostConfig rejects
        # negative values and -0.0; ``hours`` is > 0), so no term is
        # -0.0, and adding the +0.0 terms of the skipped VMs would leave
        # each partial total unchanged: the result equals a loop over
        # every record bit for bit, and a step without a violation
        # returns 0.0.
        _, fractions = accountant.fractions_with_downtime()
        usd = 0.0
        if fractions.size:
            rates = np.where(
                fractions > self._config.major_downtime_threshold,
                self._config.payback_major,
                np.where(
                    fractions > self._config.minor_downtime_threshold,
                    self._config.payback_minor,
                    0.0,
                ),
            )
            terms = rates * self._config.vm_price_usd_per_hour * hours
            usd = float(np.cumsum(terms)[-1])
        self._total_usd += usd
        return usd
