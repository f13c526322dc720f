"""Tests for the markdown report generator and the CLI compare command."""

import pytest

from repro.baselines.noop import NoMigrationScheduler
from repro.cli import main
from repro.harness.builders import build_planetlab_simulation
from repro.harness.report import (
    comparison_report,
    markdown_table,
    save_report,
)
from repro.engine.registry import SchedulerSpec
from repro.harness.runner import run_comparison


@pytest.fixture(scope="module")
def results():
    sim = build_planetlab_simulation(num_pms=4, num_vms=6, num_steps=20)
    return run_comparison(
        sim,
        {
            "NoMig": lambda s: NoMigrationScheduler(),
            "Megh": SchedulerSpec.create("megh", seed=0),
        },
    )


class TestMarkdownTable:
    def test_render(self):
        table = markdown_table([["a", "b"], ["1", "2"]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_empty(self):
        assert markdown_table([]) == ""


class TestComparisonReport:
    def test_contains_all_algorithms(self, results):
        report = comparison_report(results, title="Test Run")
        assert report.startswith("# Test Run")
        assert "| NoMig |" in report
        assert "| Megh |" in report

    def test_contains_fleet_line(self, results):
        report = comparison_report(results)
        assert "4 PMs / 6 VMs, 20 steps" in report

    def test_winner_lines(self, results):
        report = comparison_report(results)
        assert "cheapest total:" in report
        assert "cheapest converged rate:" in report
        assert "fewest migrations: **NoMig** (0)" in report

    def test_empty_results(self):
        assert "(no results)" in comparison_report({})

    def test_save_report(self, results, tmp_path):
        path = str(tmp_path / "report.md")
        save_report(results, path, title="Saved")
        content = open(path).read()
        assert content.startswith("# Saved")
        assert content.endswith("\n")


class TestCliCompare:
    def test_compare_prints_report(self, capsys):
        code = main(
            [
                "compare",
                "--pms", "4",
                "--vms", "6",
                "--steps", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scheduler comparison" in out
        assert "Megh" in out
        assert "THR-MMT" in out

    def test_compare_writes_report_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.md")
        code = main(
            [
                "compare",
                "--pms", "4",
                "--vms", "6",
                "--steps", "10",
                "--workload", "google",
                "--report", path,
            ]
        )
        assert code == 0
        assert "google" in open(path).read()
