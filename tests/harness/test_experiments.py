"""Tests for the experiment presets (scaled way down for test speed)."""

import numpy as np
import pytest

from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.engine import ExecutionEngine
from repro.engine import events as ev
from repro.engine.registry import (
    SchedulerSpec,
    spec_mmt_factories,
    spec_paper_factories,
)
from repro.harness.builders import build_planetlab_simulation
from repro.harness.runner import run_comparison
from repro.harness.experiments import (
    ExperimentPreset,
    PRESETS,
    run_megh_vs_madvm,
    run_megh_vs_thr,
    run_qtable_growth,
    run_scalability_grid,
    run_sensitivity,
    run_table_experiment,
)


def tiny(preset: ExperimentPreset, **overrides) -> ExperimentPreset:
    """Shrink a preset so a test finishes in well under a second."""
    params = dict(preset.__dict__)
    params.update(
        {"num_pms": 5, "num_vms": 8, "num_steps": 12, **overrides}
    )
    return ExperimentPreset(**params)


class TestPresets:
    def test_all_paper_experiments_present(self):
        assert set(PRESETS) == {
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
        }

    def test_presets_carry_paper_scale(self):
        for preset in PRESETS.values():
            assert preset.paper_scale

    def test_build_produces_runnable_simulation(self):
        sim = tiny(PRESETS["table2"]).build()
        assert sim.datacenter.num_pms == 5

    def test_google_preset_builds_google_fleet(self):
        sim = tiny(PRESETS["table3"]).build()
        assert all(vm.ram_mb <= 1024.0 for vm in sim.datacenter.vms)


class TestTableExperiments:
    def test_table_lineup(self):
        results = run_table_experiment(tiny(PRESETS["table2"]))
        assert set(results) == {
            "THR-MMT",
            "IQR-MMT",
            "MAD-MMT",
            "LR-MMT",
            "LRR-MMT",
            "Megh",
        }

    def test_madvm_optional(self):
        results = run_table_experiment(
            tiny(PRESETS["table2"]), include_madvm=True, num_steps=8
        )
        assert "MadVM" in results

    def test_seed_override(self):
        a = run_table_experiment(tiny(PRESETS["table2"]), seed=1)
        b = run_table_experiment(tiny(PRESETS["table2"]), seed=1)
        assert a["Megh"].total_cost_usd == pytest.approx(
            b["Megh"].total_cost_usd
        )


class TestFigurePairs:
    def test_megh_vs_thr(self):
        results = run_megh_vs_thr(tiny(PRESETS["fig2"]))
        assert set(results) == {"THR-MMT", "Megh"}

    def test_megh_vs_madvm(self):
        results = run_megh_vs_madvm(tiny(PRESETS["fig4"]))
        assert set(results) == {"Megh", "MadVM"}


class TestScalability:
    def test_grid_points(self):
        points = run_scalability_grid(
            sizes=((4, 5), (8, 10)), num_steps=8
        )
        assert len(points) == 4  # 2 sizes x 2 algorithms
        assert {p.algorithm for p in points} == {"THR-MMT", "Megh"}
        assert all(p.mean_step_ms >= 0.0 for p in points)

    def test_single_algorithm(self):
        points = run_scalability_grid(
            sizes=((4, 5),), num_steps=5, algorithms=("Megh",)
        )
        assert len(points) == 1


class TestQTableGrowth:
    def test_growth_recorded(self):
        growths = run_qtable_growth(pm_counts=(4, 6), num_steps=20)
        assert [g.num_pms for g in growths] == [4, 6]
        for growth in growths:
            assert len(growth.steps) == 20
            assert growth.nonzeros[-1] >= growth.nonzeros[0]

    def test_larger_fleet_larger_table(self):
        growths = run_qtable_growth(pm_counts=(4, 8), num_steps=20)
        assert growths[1].nonzeros[0] > growths[0].nonzeros[0]


class TestSensitivity:
    def test_temperature_sweep_shape(self):
        cells, _ = run_sensitivity(
            temperatures=(1.0, 3.0),
            epsilons=(),
            repeats=1,
            num_pms=4,
            num_vms=6,
            num_steps=10,
        )
        assert [c.parameter_dict() for c in cells] == [
            {"initial_temperature": 1.0},
            {"initial_temperature": 3.0},
        ]
        for cell in cells:
            assert cell.repeats == 1
            assert (
                cell.p10_step_cost
                <= cell.median_step_cost
                <= cell.p90_step_cost
            )

    def test_epsilon_sweep_shape(self):
        _, cells = run_sensitivity(
            temperatures=(),
            epsilons=(0.01, 0.1),
            repeats=1,
            num_pms=4,
            num_vms=6,
            num_steps=10,
        )
        assert [c.parameter_dict() for c in cells] == [
            {"temperature_decay": 0.01},
            {"temperature_decay": 0.1},
        ]

    def test_cell_both_sweeps_share_runs_once(self):
        # (Temp0 = 1, epsilon = 0.001) is in both sweeps: 3 jobs, not 4.
        engine = ExecutionEngine()
        by_temperature, by_epsilon = run_sensitivity(
            temperatures=(1.0, 3.0),
            epsilons=(0.001, 0.1),
            repeats=1,
            num_pms=4,
            num_vms=6,
            num_steps=10,
            engine=engine,
        )
        assert engine.journal.count(ev.FINISHED) == 3
        shared, again = by_temperature[0], by_epsilon[0]
        assert shared.parameter_dict() == {"initial_temperature": 1.0}
        assert again.parameter_dict() == {"temperature_decay": 0.001}
        assert shared.median_step_cost == again.median_step_cost
        assert shared.mean_total_cost == again.mean_total_cost


def simulated(result) -> dict:
    """``result.to_dict()`` without the wall-clock ``scheduler_seconds``."""
    data = result.to_dict()
    for step in data["steps"]:
        del step["scheduler_seconds"]
    return data


class TestSinglePath:
    """Each experiment's engine jobs equal an in-process reference run."""

    @pytest.mark.parametrize("experiment", ["table2", "fig2", "fig4"])
    def test_matches_in_process_comparison(self, experiment):
        preset = ExperimentPreset(
            **{**PRESETS[experiment].__dict__, "num_steps": 20}
        )
        if experiment == "table2":
            specs = spec_paper_factories(seed=preset.seed)
            results = run_table_experiment(preset)
        elif experiment == "fig2":
            specs = {
                "THR-MMT": spec_mmt_factories(detectors=("THR",))["THR-MMT"],
                "Megh": SchedulerSpec.create("megh", seed=preset.seed),
            }
            results = run_megh_vs_thr(preset)
        else:
            specs = {
                "Megh": SchedulerSpec.create("megh", seed=preset.seed),
                "MadVM": SchedulerSpec.create("madvm", seed=preset.seed),
            }
            results = run_megh_vs_madvm(preset)
        reference = run_comparison(preset.build(), specs)
        assert list(results) == list(reference)
        for name in reference:
            assert simulated(results[name]) == simulated(reference[name])

    @pytest.mark.parametrize(
        "parameter, values",
        [("Temp0", (1.0, 5.0)), ("epsilon", (0.001, 1.0))],
    )
    def test_fig8_cells_match_pooled_reference(self, parameter, values):
        size = {"num_pms": 4, "num_vms": 6, "num_steps": 15}
        repeats = 2
        if parameter == "Temp0":
            cells, _ = run_sensitivity(
                temperatures=values, epsilons=(), repeats=repeats, **size
            )
            configs = [
                MeghConfig(initial_temperature=v, temperature_decay=0.001)
                for v in values
            ]
        else:
            _, cells = run_sensitivity(
                temperatures=(), epsilons=values, repeats=repeats, **size
            )
            configs = [
                MeghConfig(initial_temperature=1.0, temperature_decay=v)
                for v in values
            ]
        assert len(cells) == len(values)
        for cell, config in zip(cells, configs):
            costs = []
            for repeat in range(repeats):
                simulation = build_planetlab_simulation(seed=repeat, **size)
                agent = MeghScheduler.from_simulation(
                    simulation, config=config, seed=repeat
                )
                result = simulation.run(agent)
                costs.extend(result.metrics.per_step_cost_series())
            data = np.asarray(costs)
            assert cell.repeats == repeats
            assert cell.median_step_cost == float(np.median(data))
            assert cell.p10_step_cost == float(np.quantile(data, 0.10))
            assert cell.p90_step_cost == float(np.quantile(data, 0.90))

    def test_scalability_grid_runs_as_engine_jobs(self):
        engine = ExecutionEngine()
        points = run_scalability_grid(
            sizes=((4, 5), (8, 10)), num_steps=5, engine=engine
        )
        assert engine.journal.count(ev.FINISHED) == len(points) == 4
