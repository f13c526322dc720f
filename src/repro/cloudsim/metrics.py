"""Per-step and aggregate simulation metrics.

Collects exactly the series the paper's figures plot — per-step operation
cost (Figs 2a/3a/4a/5a), cumulative migrations (2b/3b/4b/5b), active hosts
(2c/3c/4c/5c), and per-step scheduler execution time (2d/3d/4d/5d) — and
the Table 2/3 aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class StepMetrics:
    """Measurements for one observation interval."""

    step: int
    energy_cost_usd: float
    sla_cost_usd: float
    num_migrations_started: int
    num_migrations_rejected: int
    num_active_hosts: int
    scheduler_seconds: float
    mean_host_utilization: float
    num_overloaded_hosts: int

    @property
    def total_cost_usd(self) -> float:
        return self.energy_cost_usd + self.sla_cost_usd


@dataclass
class MetricsCollector:
    """Accumulates :class:`StepMetrics` and derives the paper's aggregates."""

    steps: List[StepMetrics] = field(default_factory=list)

    def record(self, metrics: StepMetrics) -> None:
        self.steps.append(metrics)

    # -- Table 2/3 aggregates ------------------------------------------
    @property
    def total_cost_usd(self) -> float:
        """Total operation cost over the run (Table row 1)."""
        return ordered_sum(s.total_cost_usd for s in self.steps)

    @property
    def total_energy_cost_usd(self) -> float:
        return ordered_sum(s.energy_cost_usd for s in self.steps)

    @property
    def total_sla_cost_usd(self) -> float:
        return ordered_sum(s.sla_cost_usd for s in self.steps)

    @property
    def total_migrations(self) -> int:
        """#VM migrations (Table row 2)."""
        return sum(s.num_migrations_started for s in self.steps)

    @property
    def mean_active_hosts(self) -> float:
        """Average #active hosts (Table row 3)."""
        if not self.steps:
            return 0.0
        return sum(s.num_active_hosts for s in self.steps) / len(self.steps)

    @property
    def mean_scheduler_seconds(self) -> float:
        """Average per-step execution time (Table row 4)."""
        if not self.steps:
            return 0.0
        return ordered_sum(s.scheduler_seconds for s in self.steps) / len(
            self.steps
        )

    @property
    def mean_scheduler_milliseconds(self) -> float:
        return self.mean_scheduler_seconds * 1000.0

    # -- Figure series --------------------------------------------------
    def per_step_cost_series(self) -> List[float]:
        """Figure (a) series: per-step operation cost in USD."""
        return [s.total_cost_usd for s in self.steps]

    def cumulative_migration_series(self) -> List[int]:
        """Figure (b) series: cumulative #migrations."""
        series, running = [], 0
        for s in self.steps:
            running += s.num_migrations_started
            series.append(running)
        return series

    def active_host_series(self) -> List[int]:
        """Figure (c) series: #active hosts per step."""
        return [s.num_active_hosts for s in self.steps]

    def scheduler_time_series_ms(self) -> List[float]:
        """Figure (d) series: per-step scheduler time in milliseconds."""
        return [s.scheduler_seconds * 1000.0 for s in self.steps]

    # -- Convergence ----------------------------------------------------
    def convergence_step(
        self, window: int = 20, tolerance: float = 0.10
    ) -> int:
        """First step after which the windowed mean per-step cost stays
        within ``tolerance`` (relative) of the final windowed mean.

        Reproduces the paper's "takes ~K steps to converge" reading of
        Figures 2(a)–5(a).  Returns the last step when the series never
        settles.
        """
        costs = self.per_step_cost_series()
        if len(costs) <= window:
            return len(costs)
        means = _rolling_mean(costs, window)
        final = means[-1]
        if abs(final) <= 1e-12:
            # A (numerically) zero final mean makes the relative band
            # meaningless: a cost-free run is converged from step 0.
            return 0
        for index, value in enumerate(means):
            tail = means[index:]
            if all(abs(v - final) <= tolerance * abs(final) for v in tail):
                return index
        return len(costs)


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right total ``((0 + v0) + v1) + ...``; ``0`` when empty.

    Builtin ``sum`` compensates float rounding from CPython 3.12 on, so
    its totals depend on the interpreter; this loop's do not.  It starts
    from the int ``0`` as ``sum`` does, so an empty total keeps its type.
    """
    total = 0
    for value in values:
        total += value
    return total


def _rolling_mean(values: Sequence[float], window: int) -> List[float]:
    means: List[float] = []
    running = 0.0
    for index, value in enumerate(values):
        running += value
        if index >= window:
            running -= values[index - window]
            means.append(running / window)
        else:
            means.append(running / (index + 1))
    return means
