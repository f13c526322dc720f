"""Regret analysis against a reference scheduler.

The RL lens on scheduler quality: how much extra cumulative cost does an
online policy pay relative to a stronger reference (typically the
clairvoyant :class:`~tests.baselines.oracle.OracleScheduler`)?  A
learning scheduler should show *sublinear* regret — the per-step gap
shrinking as it converges — which :func:`regret_is_sublinear` tests by
comparing the gap accumulated in the first and second halves of the run.
Nothing in ``src/`` depends on it, so it lives with
``tests/baselines/test_oracle_regret.py``.
"""

from __future__ import annotations

from typing import List

from repro.cloudsim.simulation import SimulationResult
from repro.errors import ConfigurationError


def regret_curve(
    result: SimulationResult, reference: SimulationResult
) -> List[float]:
    """Cumulative cost difference ``result - reference`` per step."""
    costs = result.metrics.per_step_cost_series()
    ref_costs = reference.metrics.per_step_cost_series()
    if len(costs) != len(ref_costs):
        raise ConfigurationError(
            "runs must cover the same number of steps "
            f"({len(costs)} vs {len(ref_costs)})"
        )
    curve: List[float] = []
    running = 0.0
    for cost, ref in zip(costs, ref_costs):
        running += cost - ref
        curve.append(running)
    return curve


def total_regret(
    result: SimulationResult, reference: SimulationResult
) -> float:
    """Final cumulative regret in USD (negative = beat the reference)."""
    curve = regret_curve(result, reference)
    return curve[-1] if curve else 0.0


def regret_is_sublinear(
    result: SimulationResult,
    reference: SimulationResult,
    tolerance: float = 1.0,
) -> bool:
    """Whether the second half accrues less regret than the first.

    ``tolerance`` scales the comparison: 1.0 demands strictly less,
    1.2 allows the second half up to 20 % more (noise headroom).
    """
    if tolerance <= 0:
        raise ConfigurationError("tolerance must be > 0")
    curve = regret_curve(result, reference)
    if len(curve) < 4:
        return True
    half = len(curve) // 2
    first_half = curve[half - 1]
    second_half = curve[-1] - curve[half - 1]
    return second_half <= tolerance * max(first_half, 0.0) or second_half <= 0.0
