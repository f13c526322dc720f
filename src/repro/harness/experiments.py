"""Experiment presets: one entry per table/figure of the paper's Section 6.

Each preset captures the workload, fleet, schedulers, and horizon of one
experiment at *bench scale* — reduced from the paper's 800-PM/7-day runs
so a bench finishes in seconds while preserving the qualitative shape
(who wins, by roughly what factor, where crossovers fall).  Full-scale
parameters are kept alongside for reference and for users with time to
burn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloudsim.simulation import Simulation, SimulationResult
from repro.config import MeghConfig, SimulationConfig
from repro.core.agent import MeghScheduler
from repro.engine import (
    BuilderSpec,
    ExecutionEngine,
    SchedulerSpec,
    job_spec,
    spec_mmt_factories,
    spec_paper_factories,
)
from repro.harness.builders import (
    build_google_simulation,
    build_planetlab_simulation,
)
from repro.harness.sweeps import SweepCell, sweep_megh_grids


@dataclass(frozen=True)
class ExperimentPreset:
    """Scale parameters of one reproduced experiment."""

    experiment_id: str
    description: str
    workload: str  # "planetlab" | "google"
    num_pms: int
    num_vms: int
    num_steps: int
    seed: int = 0
    placement: str = "first-fit"
    paper_scale: str = ""

    def build(self, config: Optional[SimulationConfig] = None) -> Simulation:
        """Build the simulation for this preset."""
        builder = (
            build_planetlab_simulation
            if self.workload == "planetlab"
            else build_google_simulation
        )
        return builder(
            num_pms=self.num_pms,
            num_vms=self.num_vms,
            num_steps=self.num_steps,
            seed=self.seed,
            placement=self.placement,
            config=config,
        )


#: Bench-scale presets, keyed by experiment id.
PRESETS: Dict[str, ExperimentPreset] = {
    "table2": ExperimentPreset(
        experiment_id="table2",
        description="PlanetLab: MMT family vs Megh (total cost, "
        "migrations, active hosts, exec time)",
        workload="planetlab",
        num_pms=40,
        num_vms=52,
        num_steps=600,
        paper_scale="800 PMs / 1052 VMs / 2016 steps (7 days)",
    ),
    "table3": ExperimentPreset(
        experiment_id="table3",
        description="Google Cluster: MMT family vs Megh",
        workload="google",
        num_pms=25,
        num_vms=100,
        num_steps=600,
        paper_scale="500 PMs / 2000 VMs / 2016 steps",
    ),
    "fig2": ExperimentPreset(
        experiment_id="fig2",
        description="PlanetLab: Megh vs THR-MMT per-step series",
        workload="planetlab",
        num_pms=40,
        num_vms=52,
        num_steps=600,
        paper_scale="as Table 2",
    ),
    "fig3": ExperimentPreset(
        experiment_id="fig3",
        description="Google: Megh vs THR-MMT per-step series",
        workload="google",
        num_pms=25,
        num_vms=100,
        num_steps=600,
        paper_scale="as Table 3",
    ),
    "fig4": ExperimentPreset(
        experiment_id="fig4",
        description="PlanetLab subset: Megh vs MadVM",
        workload="planetlab",
        num_pms=20,
        num_vms=30,
        num_steps=864,
        placement="random",
        paper_scale="100 PMs / 150 VMs / 3 days, uniform random placement",
    ),
    "fig5": ExperimentPreset(
        experiment_id="fig5",
        description="Google subset: Megh vs MadVM",
        workload="google",
        num_pms=20,
        num_vms=40,
        num_steps=864,
        placement="random",
        paper_scale="100 PMs / 150 VMs / 3 days, uniform random placement",
    ),
}


def preset_builder_spec(preset: ExperimentPreset) -> BuilderSpec:
    """Engine :class:`~repro.engine.registry.BuilderSpec` for a preset.

    The preset's workload name maps directly onto the engine registry's
    ``planetlab``/``google`` builders.
    """
    return BuilderSpec.create(
        preset.workload,
        num_pms=preset.num_pms,
        num_vms=preset.num_vms,
        num_steps=preset.num_steps,
        placement=preset.placement,
    )


def _run_preset(
    preset: ExperimentPreset,
    factories: Dict[str, SchedulerSpec],
    seed: int,
    engine: Optional[ExecutionEngine],
    num_steps: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Run a line-up on a preset's fleet as engine jobs."""
    return (engine or ExecutionEngine()).run_comparison(
        preset_builder_spec(preset), factories, seed=seed, num_steps=num_steps
    )


def run_table_experiment(
    preset: ExperimentPreset,
    include_madvm: bool = False,
    num_steps: Optional[int] = None,
    seed: Optional[int] = None,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, SimulationResult]:
    """Run the Table-2/3 line-up on a preset.

    ``engine`` sets how the jobs run (workers, cache, journal); the
    default runs them inline.
    """
    seed = preset.seed if seed is None else seed
    factories = spec_paper_factories(include_madvm=include_madvm, seed=seed)
    return _run_preset(preset, factories, seed, engine, num_steps)


def run_megh_vs_thr(
    preset: ExperimentPreset,
    seed: Optional[int] = None,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, SimulationResult]:
    """Run the Figure-2/3 pair (Megh and THR-MMT) on a preset."""
    seed = preset.seed if seed is None else seed
    factories = {
        "THR-MMT": spec_mmt_factories(detectors=("THR",))["THR-MMT"],
        "Megh": SchedulerSpec.create("megh", seed=seed),
    }
    return _run_preset(preset, factories, seed, engine)


def run_megh_vs_madvm(
    preset: ExperimentPreset,
    seed: Optional[int] = None,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, SimulationResult]:
    """Run the Figure-4/5 pair (Megh and MadVM) on a preset."""
    seed = preset.seed if seed is None else seed
    factories = {
        "Megh": SchedulerSpec.create("megh", seed=seed),
        "MadVM": SchedulerSpec.create("madvm", seed=seed),
    }
    return _run_preset(preset, factories, seed, engine)


# ----------------------------------------------------------------------
# Figure 6: scalability grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalabilityPoint:
    """Per-step execution time at one (m, n) fleet size."""

    num_pms: int
    num_vms: int
    algorithm: str
    mean_step_ms: float


def run_scalability_grid(
    sizes: Sequence[Tuple[int, int]] = ((10, 13), (20, 26), (40, 52), (80, 104)),
    num_steps: int = 100,
    seed: int = 0,
    algorithms: Sequence[str] = ("THR-MMT", "Megh"),
    engine: Optional[ExecutionEngine] = None,
) -> List[ScalabilityPoint]:
    """Measure per-step decision time across fleet sizes (Figure 6).

    The paper's grid is m, n in {100..800}; the bench grid is scaled down
    but spans the same 8x range so the growth *shape* (THR-MMT superlinear,
    Megh sublinear, crossover) is visible.  Every size × algorithm is one
    engine job; a cached job replays its recorded timings, so fresh
    timings need a cold cache.
    """
    lineup = {
        "THR-MMT": spec_mmt_factories(detectors=("THR",))["THR-MMT"],
        "Megh": SchedulerSpec.create("megh", seed=seed),
    }
    cells = [
        (num_pms, num_vms, name)
        for num_pms, num_vms in sizes
        for name in lineup
        if name in algorithms
    ]
    specs = [
        job_spec(
            BuilderSpec.create(
                "planetlab",
                num_pms=num_pms,
                num_vms=num_vms,
                num_steps=num_steps,
            ),
            lineup[name],
            seed,
            tag=f"{name}@{num_pms}x{num_vms}",
        )
        for num_pms, num_vms, name in cells
    ]
    results = (engine or ExecutionEngine()).run_strict(specs)
    return [
        ScalabilityPoint(
            num_pms=num_pms,
            num_vms=num_vms,
            algorithm=name,
            mean_step_ms=result.mean_scheduler_ms,
        )
        for (num_pms, num_vms, name), result in zip(cells, results)
    ]


# ----------------------------------------------------------------------
# Figure 7: Q-table growth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QTableGrowth:
    """Q-table non-zero series for one fleet size (N = M)."""

    num_pms: int
    steps: Tuple[int, ...]
    nonzeros: Tuple[int, ...]
    slope: float
    intercept: float


def run_qtable_growth(
    pm_counts: Sequence[int] = (10, 20, 40),
    num_steps: int = 300,
    seed: int = 0,
) -> List[QTableGrowth]:
    """Track Q-table non-zeros over time for several fleet sizes (Fig 7).

    The paper sets N = M and observes linear growth in time with a
    vertical shift roughly linear in the number of PMs.  This runs in
    process, not as engine jobs: it reads the learner's
    :class:`~repro.core.qtable.QTableTracker`, which a
    :class:`SimulationResult` does not carry.
    """
    growths: List[QTableGrowth] = []
    for num_pms in pm_counts:
        simulation = build_planetlab_simulation(
            num_pms=num_pms,
            num_vms=num_pms,
            num_steps=num_steps,
            seed=seed,
        )
        scheduler = MeghScheduler.from_simulation(simulation, seed=seed)
        simulation.run(scheduler)
        tracker = scheduler.qtable
        growths.append(
            QTableGrowth(
                num_pms=num_pms,
                steps=tuple(tracker.steps),
                nonzeros=tuple(tracker.nonzeros),
                slope=tracker.growth_rate(),
                intercept=tracker.intercept(),
            )
        )
    return growths


# ----------------------------------------------------------------------
# Figure 8: parameter sensitivity
# ----------------------------------------------------------------------
def run_sensitivity(
    temperatures: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0),
    epsilons: Sequence[float] = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0),
    epsilon: float = 0.001,
    temperature: float = 1.0,
    repeats: int = 3,
    num_pms: int = 16,
    num_vms: int = 21,
    num_steps: int = 300,
    engine: Optional[ExecutionEngine] = None,
) -> Tuple[List[SweepCell], List[SweepCell]]:
    """Figure 8's two sweeps as one batch of engine jobs: Temp0 at
    ``epsilon`` (8(a)) and epsilon at Temp0 = ``temperature`` (8(b));
    an empty value list skips a sweep.  The paper sweeps Temp0 over
    0.5..10 step 0.5 at epsilon = 0.001 and 30 log-spaced epsilons in
    [1e-3, 1] at Temp0 = 1, 25 repeats each.  Repeat ``r`` runs seed
    ``r``; per-step costs pool across repeats.  A cell both sweeps
    contain runs once.  Returns ``(Temp0 cells, epsilon cells)``."""
    by_temperature, by_epsilon = sweep_megh_grids(
        BuilderSpec.create(
            "planetlab", num_pms=num_pms, num_vms=num_vms, num_steps=num_steps
        ),
        [
            (
                {"initial_temperature": list(temperatures)},
                MeghConfig(temperature_decay=epsilon),
            ),
            (
                {"temperature_decay": list(epsilons)},
                MeghConfig(initial_temperature=temperature),
            ),
        ],
        seeds=range(repeats),
        engine=engine,
    )
    return by_temperature, by_epsilon
