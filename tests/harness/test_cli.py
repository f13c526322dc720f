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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--steps", "0"], "--steps must be >= 1"),
            (["--jobs", "0"], "--jobs must be >= 1"),
            (["--jobs", "-4"], "--jobs must be >= 1"),
        ],
    )
    def test_non_positive_count_exits_2(self, flags, message):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "compare",
                "--pms", "4", "--vms", "4", "--steps", "2", *flags,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "Traceback" not in completed.stderr
        assert message in completed.stderr
        assert len(completed.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "experiment, flag",
        [
            ("fig7", ["--jobs", "2"]),
            ("fig7", ["--cache-dir", "cache"]),
            ("profile", ["--journal", "journal.jsonl"]),
        ],
    )
    def test_engine_flags_on_in_process_experiment_exit_2(
        self, tmp_path, experiment, flag
    ):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", experiment,
                "--steps", "2", *flag,
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "Traceback" not in completed.stderr
        assert "do not apply to " + experiment in completed.stderr
        assert len(completed.stderr.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True])
    def test_kernel_cache_at_or_under_a_file_exits_2(self, tmp_path, under):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a regular file\n", encoding="utf-8")
        cache = blocker / "cache" if under else blocker
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, REPRO_KERNEL_CACHE=str(cache))
        env.pop("REPRO_KERNEL", None)
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
        assert "REPRO_KERNEL_CACHE" in completed.stderr
        assert len(completed.stderr.strip().splitlines()) == 1
