"""Tests for the experiment runner, table rendering, and figure series."""

import pytest

from repro.baselines.noop import NoMigrationScheduler
from repro.engine.registry import (
    SchedulerSpec,
    spec_mmt_factories,
    spec_paper_factories,
)
from repro.harness.builders import build_planetlab_simulation
from repro.harness.figures import (
    downsample,
    figure_series,
    render_figure,
    render_panel,
)
from repro.harness.runner import run_comparison, run_scheduler
from repro.harness.tables import comparison_table, format_table, render_comparison


@pytest.fixture(scope="module")
def small_results():
    sim = build_planetlab_simulation(num_pms=5, num_vms=7, num_steps=15)
    factories = {
        "NoMig": lambda s: NoMigrationScheduler(),
        "Megh": SchedulerSpec.create("megh", seed=0),
    }
    return run_comparison(sim, factories)


class TestRunner:
    def test_run_scheduler_resets_first(self):
        sim = build_planetlab_simulation(num_pms=4, num_vms=5, num_steps=10)
        result_a = run_scheduler(sim, NoMigrationScheduler())
        result_b = run_scheduler(sim, NoMigrationScheduler())
        assert result_a.total_cost_usd == pytest.approx(
            result_b.total_cost_usd
        )

    def test_comparison_covers_all_factories(self, small_results):
        assert set(small_results) == {"NoMig", "Megh"}

    def test_identical_replay_across_schedulers(self, small_results):
        # Both runs simulated the same steps.
        lengths = {len(r.metrics.steps) for r in small_results.values()}
        assert lengths == {15}

    def test_mmt_factories_cover_paper_variants(self):
        assert set(spec_mmt_factories()) == {
            "THR-MMT",
            "IQR-MMT",
            "MAD-MMT",
            "LR-MMT",
            "LRR-MMT",
        }

    def test_paper_factories_include_megh(self):
        factories = spec_paper_factories(include_madvm=True)
        assert "Megh" in factories
        assert "MadVM" in factories

    def test_factories_build_named_schedulers(self):
        sim = build_planetlab_simulation(num_pms=3, num_vms=4, num_steps=5)
        factories = spec_paper_factories(include_madvm=True)
        assert factories["THR-MMT"](sim).name == "THR-MMT"
        assert factories["Megh"](sim).name == "Megh"
        assert factories["MadVM"](sim).name == "MadVM"


class TestTables:
    def test_grid_shape(self, small_results):
        grid = comparison_table(small_results, title="t")
        assert grid[0] == ["t"]
        assert grid[1][0] == "Algorithm"
        assert len(grid) == 6  # title + header + 4 metric rows

    def test_format_alignment(self, small_results):
        text = render_comparison(small_results, title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "Total cost (USD)" in text
        assert "Execution time (ms)" in text

    def test_format_title_only(self):
        assert format_table([["just a title"]]) == "just a title"


class TestFigures:
    def test_series_extraction(self, small_results):
        series = figure_series(small_results["Megh"])
        assert series.algorithm == "Megh"
        assert series.num_steps == 15
        assert len(series.cumulative_migrations) == 15
        assert series.cumulative_migrations == sorted(
            series.cumulative_migrations
        )

    def test_downsample_shorter_than_points(self):
        assert downsample([1.0, 2.0], points=10) == [1.0, 2.0]

    def test_downsample_keeps_endpoints(self):
        values = list(range(100))
        sampled = downsample(values, points=5)
        assert sampled[0] == 0
        assert sampled[-1] == 99
        assert len(sampled) == 5

    def test_downsample_empty(self):
        assert downsample([], points=5) == []
        assert downsample([1.0], points=0) == []

    def test_render_panel(self):
        text = render_panel("cost", {"A": [1.0, 2.0], "B": [3.0, 4.0]})
        assert "-- cost --" in text
        assert "A" in text and "B" in text

    def test_render_figure_contains_all_panels(self, small_results):
        series = [figure_series(r) for r in small_results.values()]
        text = render_figure(series, title="fig-test")
        for panel in ("(a)", "(b)", "(c)", "(d)", "convergence"):
            assert panel in text
