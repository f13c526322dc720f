"""Multi-seed experiment aggregation.

The paper repeats its scalability and sensitivity experiments 25 times
over random PM/VM subsets.  :func:`run_multi_seed` provides that rigor
for any comparison: it runs every scheduler spec on a fresh simulation
per seed as engine jobs, and aggregates each metric into mean ± std plus
the per-seed values, together with win counts (how often each algorithm
had the lowest total cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cloudsim.metrics import ordered_sum
from repro.cloudsim.simulation import SimulationResult
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # the engine loads on first use, not with the package
    from repro.engine import BuilderSpec, ExecutionEngine, SchedulerSpec


@dataclass(frozen=True)
class MetricSummary:
    """Mean/std/extremes of one metric across seeds."""

    values: tuple

    @property
    def mean(self) -> float:
        return ordered_sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            ordered_sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


@dataclass
class SeedAggregate:
    """All metric summaries for one algorithm across seeds."""

    algorithm: str
    total_cost_usd: MetricSummary
    total_migrations: MetricSummary
    mean_active_hosts: MetricSummary
    mean_scheduler_ms: MetricSummary
    wins: int = 0
    results: List[SimulationResult] = field(default_factory=list)


def cheapest_algorithm(results: Dict[str, SimulationResult]) -> str:
    """The per-seed winner: lowest total cost, ties broken by name.

    The explicit ``(cost, name)`` key makes the win count independent of
    dict insertion order — two algorithms with exactly equal cost always
    resolve to the lexicographically smaller name.
    """
    return min(
        results.items(), key=lambda kv: (kv[1].total_cost_usd, kv[0])
    )[0]


def aggregate_seed_results(
    results_by_seed: Sequence[Dict[str, SimulationResult]],
) -> Dict[str, SeedAggregate]:
    """Fold per-seed comparison results into :class:`SeedAggregate`s."""
    if not results_by_seed:
        raise ConfigurationError("need results for at least one seed")
    names = list(results_by_seed[0])
    per_algorithm: Dict[str, List[SimulationResult]] = {
        name: [] for name in names
    }
    wins: Dict[str, int] = {name: 0 for name in names}
    for results in results_by_seed:
        wins[cheapest_algorithm(results)] += 1
        for name, result in results.items():
            per_algorithm[name].append(result)
    aggregates: Dict[str, SeedAggregate] = {}
    for name, results in per_algorithm.items():
        aggregates[name] = SeedAggregate(
            algorithm=name,
            total_cost_usd=MetricSummary(
                tuple(r.total_cost_usd for r in results)
            ),
            total_migrations=MetricSummary(
                tuple(float(r.total_migrations) for r in results)
            ),
            mean_active_hosts=MetricSummary(
                tuple(r.mean_active_hosts for r in results)
            ),
            mean_scheduler_ms=MetricSummary(
                tuple(r.mean_scheduler_ms for r in results)
            ),
            wins=wins[name],
            results=results,
        )
    return aggregates


def run_multi_seed(
    builder: BuilderSpec,
    factories: Dict[str, SchedulerSpec],
    seeds: Sequence[int],
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, SeedAggregate]:
    """Run every spec on a fresh simulation per seed and aggregate.

    The seed × scheduler grid runs as engine jobs; ``engine`` sets
    workers, cache and journal, and the default runs them inline.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if not factories:
        raise ConfigurationError("need at least one scheduler factory")
    from repro.engine import ExecutionEngine

    results_by_seed = (engine or ExecutionEngine()).run_matrix(
        builder, factories, seeds
    )
    return aggregate_seed_results(results_by_seed)


def render_aggregates(
    aggregates: Dict[str, SeedAggregate], title: str = ""
) -> str:
    """Plain-text table of mean ± std per metric, plus win counts."""
    lines = [title] if title else []
    header = (
        f"{'Algorithm':14s} {'total cost (USD)':>22s} "
        f"{'#migrations':>18s} {'active hosts':>16s} {'wins':>5s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, aggregate in aggregates.items():
        lines.append(
            f"{name:14s} "
            f"{aggregate.total_cost_usd.mean:10.2f} ± {aggregate.total_cost_usd.std:7.2f} "
            f"{aggregate.total_migrations.mean:9.0f} ± {aggregate.total_migrations.std:5.0f} "
            f"{aggregate.mean_active_hosts.mean:8.1f} ± {aggregate.mean_active_hosts.std:4.1f} "
            f"{aggregate.wins:5d}"
        )
    return "\n".join(lines)
