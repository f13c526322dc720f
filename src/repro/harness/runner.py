"""Experiment runners: one scheduler, or a paper-style comparison sweep."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cloudsim.simulation import Simulation, SimulationResult
from repro.mdp.interfaces import Scheduler


def run_scheduler(
    simulation: Simulation,
    scheduler: Scheduler,
    num_steps: Optional[int] = None,
) -> SimulationResult:
    """Reset the simulation and run one scheduler on it."""
    simulation.reset()
    return simulation.run(scheduler, num_steps=num_steps)


def run_comparison(
    simulation: Simulation,
    factories: Dict[str, Callable[[Simulation], Scheduler]],
    num_steps: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Run several schedulers on identical replays of the same workload.

    Each scheduler sees the same initial placement and the same trace, so
    differences in the results are attributable to the scheduler alone.
    A :class:`~repro.engine.registry.SchedulerSpec` is such a factory.
    """
    results: Dict[str, SimulationResult] = {}
    for name, factory in factories.items():
        simulation.reset()
        scheduler = factory(simulation)
        results[name] = simulation.run(scheduler, num_steps=num_steps)
    return results
