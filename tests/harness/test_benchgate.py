"""``repro bench --check`` perf-regression gate.

``check_benchmarks`` is pure — synthetic fresh/committed documents
exercise floors, band scaling, schema drift, and the candidate-oracle
hard check without touching a benchmark.  The CLI tests feed the gate
pre-built JSON via ``--fresh-core``/``--fresh-sim`` so no subprocess
runs; the real end-to-end path (fresh ``--fast`` runs) belongs to the
warn-only CI step, not the unit suite.
"""

from __future__ import annotations

import json

from repro.cli import main as repro_main
from repro.harness.benchgate import METRIC_FLOORS, check_benchmarks, run


def _core_document(scale=1.0, oracle=True):
    return {
        "lstd": {
            "rank_one_update_ops_per_s": 1000.0 * scale,
            "q_value_cold_ops_per_s": 2000.0 * scale,
            "q_value_warm_ops_per_s": 8000.0 * scale,
            "q_values_batched_ops_per_s": 50000.0 * scale,
            "warm_over_cold_speedup": 4.0 * scale,
        },
        "decide": {
            "decide_ops_per_s": 250.0 * scale,
            "oracle_match": oracle,
        },
    }


def _sim_document(scale=1.0):
    return {
        "sim_step_fast": {
            "after": {"steps_per_s_non_scheduler": 300.0 * scale},
        }
    }


def _service_document(scale=1.0):
    return {
        "service_churn": {
            "steps_per_s": 900.0 * scale,
            "events_per_s": 2500.0 * scale,
            "retirements_per_s": 700.0 * scale,
        }
    }


def _documents(scale=1.0, oracle=True):
    return {
        "core": _core_document(scale, oracle=oracle),
        "sim": _sim_document(scale),
        "service": _service_document(scale),
    }


class TestCheckBenchmarks:
    def test_identical_documents_pass(self):
        findings, hard = check_benchmarks(_documents(), _documents())
        assert hard == []
        assert len(findings) == len(METRIC_FLOORS)
        assert all(finding.ok for finding in findings)

    def test_collapse_is_a_regression(self):
        findings, hard = check_benchmarks(
            _documents(scale=0.001), _documents()
        )
        assert hard == []
        bad = [finding for finding in findings if not finding.ok]
        assert len(bad) == len(METRIC_FLOORS)
        assert "REGRESSION" in bad[0].format()

    def test_floors_tolerate_fast_mode_scale(self):
        # Fast mode legitimately runs the batched kernel far below
        # paper-scale throughput; every committed floor must accept a
        # fresh/committed ratio well above its calibration headroom.
        findings, hard = check_benchmarks(
            _documents(scale=3.0), _documents()
        )
        assert hard == []
        assert all(finding.ok for finding in findings)

    def test_band_scales_every_floor(self):
        fresh = _documents(scale=0.09)  # below the 0.30 core floor...
        strict, _ = check_benchmarks(fresh, _documents())
        relaxed, _ = check_benchmarks(fresh, _documents(), band=0.08)
        assert any(not finding.ok for finding in strict)
        assert all(finding.ok for finding in relaxed)

    def test_candidate_oracle_break_is_a_hard_failure(self):
        findings, hard = check_benchmarks(
            _documents(oracle=False), _documents()
        )
        assert all(finding.ok for finding in findings)
        assert len(hard) == 1
        assert "oracle_match" in hard[0]

    def test_missing_metric_reports_schema_drift(self):
        fresh = _documents()
        del fresh["core"]["lstd"]["warm_over_cold_speedup"]
        findings, hard = check_benchmarks(fresh, _documents())
        assert any("schema drift" in message for message in hard)
        assert len(findings) == len(METRIC_FLOORS) - 1


def _write_documents(tmp_path, scale=1.0, oracle=True):
    paths = {}
    for key, document in (
        ("committed_core", _core_document()),
        ("committed_sim", _sim_document()),
        ("committed_service", _service_document()),
        ("fresh_core", _core_document(scale, oracle=oracle)),
        ("fresh_sim", _sim_document(scale)),
        ("fresh_service", _service_document(scale)),
    ):
        target = tmp_path / f"{key}.json"
        target.write_text(json.dumps(document))
        paths[key] = str(target)
    return paths


def _argv(paths, *extra):
    return [
        "--check",
        "--committed-core",
        paths["committed_core"],
        "--committed-sim",
        paths["committed_sim"],
        "--committed-service",
        paths["committed_service"],
        "--fresh-core",
        paths["fresh_core"],
        "--fresh-sim",
        paths["fresh_sim"],
        "--fresh-service",
        paths["fresh_service"],
        *extra,
    ]


class TestCli:
    def test_ok_run_exits_zero(self, tmp_path, capsys):
        assert run(_argv(_write_documents(tmp_path))) == 0
        assert "bench-gate: ok" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        paths = _write_documents(tmp_path, scale=0.001)
        assert run(_argv(paths)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "bench-gate: FAIL" in out

    def test_band_flag_relaxes_the_gate(self, tmp_path):
        paths = _write_documents(tmp_path, scale=0.09)
        assert run(_argv(paths)) == 1
        assert run(_argv(paths, "--band", "0.08")) == 0

    def test_oracle_break_fails_despite_good_throughput(
        self, tmp_path, capsys
    ):
        paths = _write_documents(tmp_path, oracle=False)
        assert run(_argv(paths)) == 1
        assert "oracle_match" in capsys.readouterr().out

    def test_no_check_is_a_usage_error(self, capsys):
        assert run([]) == 2
        captured = capsys.readouterr()
        assert "--check" in captured.err
        assert captured.out == ""

    def test_missing_committed_record_exits_two(self, tmp_path, capsys):
        paths = _write_documents(tmp_path)
        paths["committed_core"] = str(tmp_path / "absent.json")
        assert run(_argv(paths)) == 2
        assert "repro bench: error" in capsys.readouterr().err

    def test_repro_cli_dispatches_bench(self, tmp_path, capsys):
        paths = _write_documents(tmp_path)
        assert repro_main(["bench", *_argv(paths)]) == 0
        assert "bench-gate: ok" in capsys.readouterr().out
