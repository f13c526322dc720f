"""Every declared metric is printed with its unit, on tiny fleets."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    completed = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace), "--smoke",
    )
    assert completed.returncode == 0, completed.stderr
    meta_line, result_line = completed.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units
    meta = json.loads(meta_line)["meta"]
    assert meta["contracts"] == "0"
    assert meta["kernel_ran"] in ("c", "numpy", "off", "none")


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench(
        str(tmp_path), "--workload", "megh-planetlab", "--seed", "0",
        "--seconds", "1", "--trace", "0",
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.fixture
def in_process(monkeypatch):
    """``measure`` imported in this process, with the compiled kernel off."""
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    monkeypatch.setenv("REPRO_KERNEL", "off")
    import measure

    return measure


def last_result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_failed_output_check_fails_the_run(in_process, monkeypatch, capsys):
    def reject(built, result):
        raise in_process.OutputError("rejected")

    monkeypatch.setattr(in_process, "check_output", reject)
    assert in_process.run("megh-planetlab", 1, 0.0, False, True) == 1
    result = last_result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 40
    assert result["metrics"] == {
        "completed_step_fraction": {"value": 0.0, "unit": "share"}
    }


def test_repeats_that_differ_fail_the_run(in_process, monkeypatch, capsys):
    digests = iter(["a", "b", "c", "d"])
    monkeypatch.setattr(
        in_process, "check_output", lambda built, result: next(digests)
    )
    assert in_process.run("mmt-planetlab", 1, 0.0, False, True) == 1
    result = last_result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3 * 40
