"""Parameter sweeps over Megh configurations: the one sweep path.

:func:`sweep_megh` runs a grid over any :class:`~repro.config.MeghConfig`
fields as engine jobs (one simulation rebuild per cell per seed),
aggregates per-step-cost distributions, and returns typed cells.  Figure
8's Temp0 and epsilon sweeps are two one-field grids, run as one batch
by :func:`sweep_megh_grids` (:mod:`repro.harness.experiments`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MeghConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # the engine loads on first use, not with the package
    from repro.engine import BuilderSpec, ExecutionEngine


@dataclass(frozen=True)
class SweepCell:
    """One grid point's aggregated outcome."""

    parameters: Tuple[Tuple[str, object], ...]
    median_step_cost: float
    p10_step_cost: float
    p90_step_cost: float
    mean_total_cost: float
    mean_migrations: float
    repeats: int

    def parameter_dict(self) -> Dict[str, object]:
        return dict(self.parameters)


def _cell_from_results(
    parameters: Tuple[Tuple[str, object], ...],
    results: Sequence[object],
    repeats: int,
) -> SweepCell:
    """Aggregate one grid point's per-seed results into a cell."""
    step_costs: List[float] = []
    totals: List[float] = []
    migrations: List[float] = []
    for result in results:
        step_costs.extend(result.metrics.per_step_cost_series())
        totals.append(result.total_cost_usd)
        migrations.append(float(result.total_migrations))
    data = np.asarray(step_costs)
    return SweepCell(
        parameters=parameters,
        median_step_cost=float(np.median(data)),
        p10_step_cost=float(np.quantile(data, 0.10)),
        p90_step_cost=float(np.quantile(data, 0.90)),
        mean_total_cost=float(np.mean(totals)),
        mean_migrations=float(np.mean(migrations)),
        repeats=repeats,
    )


def sweep_megh(
    builder: BuilderSpec,
    grid: Dict[str, Sequence[object]],
    base_config: Optional[MeghConfig] = None,
    seeds: Sequence[int] = (0,),
    engine: Optional[ExecutionEngine] = None,
) -> List[SweepCell]:
    """Run Megh over the Cartesian product of ``grid``'s values.

    ``grid`` maps :class:`MeghConfig` field names to the values to try;
    unknown field names raise immediately.  Each cell runs once per
    seed; per-step costs pool across seeds.  The whole grid — every
    cell × seed — is one batch of engine jobs, so ``engine`` can spread
    it over workers and replay unchanged cells from its cache; the
    default runs it inline.
    """
    return sweep_megh_grids(builder, [(grid, base_config)], seeds, engine)[0]


def sweep_megh_grids(
    builder: BuilderSpec,
    grids: Sequence[Tuple[Dict[str, Sequence[object]], Optional[MeghConfig]]],
    seeds: Sequence[int] = (0,),
    engine: Optional[ExecutionEngine] = None,
) -> List[List[SweepCell]]:
    """:func:`sweep_megh` over several ``(grid, base_config)`` pairs in
    one batch of engine jobs: one cell list per grid, and a cell two
    grids share runs once."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    points: List[List[Tuple[Tuple[str, object], ...]]] = []  # per grid
    configs: List[MeghConfig] = []
    for grid, base_config in grids:
        if not grid:
            raise ConfigurationError("grid must name at least one parameter")
        base = base_config or MeghConfig()
        valid_fields = set(base.__dataclass_fields__)
        for name in grid:
            if name not in valid_fields:
                raise ConfigurationError(
                    f"unknown MeghConfig field {name!r}; "
                    f"valid fields: {sorted(valid_fields)}"
                )
        names = list(grid)
        values = list(itertools.product(*(grid[name] for name in names)))
        points.append([tuple(zip(names, point)) for point in values])
        configs.extend(
            replace(base, **dict(zip(names, point))) for point in values
        )
    from repro.engine import ExecutionEngine

    per_cell = iter(
        (engine or ExecutionEngine()).run_sweep(builder, configs, seeds)
    )
    return [
        [
            _cell_from_results(parameters, next(per_cell), len(seeds))
            for parameters in grid_points
        ]
        for grid_points in points
    ]


def render_sweep(cells: Sequence[SweepCell], title: str = "") -> str:
    """Plain-text table of a sweep, one row per grid point."""
    lines = [title] if title else []
    for cell in cells:
        params = ", ".join(f"{k}={v}" for k, v in cell.parameters)
        lines.append(
            f"{params}: median/step={cell.median_step_cost:.4f} "
            f"[{cell.p10_step_cost:.4f}, {cell.p90_step_cost:.4f}] "
            f"total={cell.mean_total_cost:.2f} "
            f"migrations={cell.mean_migrations:.0f}"
        )
    return "\n".join(lines)
