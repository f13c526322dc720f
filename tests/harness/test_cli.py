"""Tests for the megh-repro command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("table2", "table3", "fig4", "fig6", "fig7", "fig8"):
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        assert main(["fig7", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "Q-table" in out
        assert "slope" in out

    def test_fig6_small(self, capsys):
        # The default grid is too slow for a unit test; patch via steps.
        assert main(["fig6", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "Megh" in out

    @pytest.mark.slow
    def test_table2_runs(self, capsys):
        assert main(["table2", "--steps", "30"]) == 0
        out = capsys.readouterr().out
        assert "Total cost (USD)" in out
        assert "Megh" in out


class TestCliClaims:
    def test_compare_with_claims(self, capsys):
        code = main(
            [
                "compare",
                "--pms", "4",
                "--vms", "6",
                "--steps", "10",
                "--claims",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Findings (Section 6.3 style)" in out
        assert "expenditure" in out


class TestCliConfigurationErrors:
    """A bad env knob exits 2 with one line on stderr, no traceback."""

    @pytest.mark.parametrize(
        "variable", ["REPRO_KERNEL", "REPRO_CONTRACTS"]
    )
    def test_bad_env_knob_exits_2(self, variable):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, **{variable: "bogus"})
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "compare",
                "--pms", "4", "--vms", "4", "--steps", "2",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert variable in completed.stderr
        assert len(completed.stderr.strip().splitlines()) == 1
