"""Baseline mechanism: load validation, apply/update semantics, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    BaselineError,
    LintResult,
    apply_baseline,
    load_baseline,
    update_baseline,
)
from repro.analysis.cli import run as lint_cli
from repro.analysis.diagnostics import Diagnostic, Severity


def _diagnostic(path="pkg/mod.py", rule="MEGH002", message="wall clock"):
    return Diagnostic(
        path=path,
        line=3,
        column=1,
        rule_id=rule,
        severity=Severity.ERROR,
        message=message,
    )


def _entry(count=1, reason="known wall-clock read in legacy shim"):
    return BaselineEntry(
        path="pkg/mod.py",
        rule="MEGH002",
        message="wall clock",
        count=count,
        reason=reason,
    )


class TestLoad:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BaselineError, match="no such baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_raises(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text("{not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(target)

    def test_entry_without_reason_raises(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "path": "a.py",
                            "rule": "MEGH002",
                            "message": "m",
                            "count": 1,
                        }
                    ]
                }
            )
        )
        with pytest.raises(BaselineError, match="missing required field"):
            load_baseline(target)

    def test_blank_reason_raises(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "path": "a.py",
                            "rule": "MEGH002",
                            "message": "m",
                            "count": 1,
                            "reason": "   ",
                        }
                    ]
                }
            )
        )
        with pytest.raises(BaselineError, match="written justification"):
            load_baseline(target)

    def test_round_trip(self, tmp_path):
        target = tmp_path / "b.json"
        Baseline(entries=(_entry(),)).save(target)
        assert load_baseline(target).entries == (_entry(),)


class TestApply:
    def test_absorbs_matching_findings(self):
        result = LintResult(diagnostics=[_diagnostic()])
        apply_baseline(result, Baseline(entries=(_entry(),)))
        assert result.diagnostics == []
        assert result.baselined == 1
        assert result.stale_baseline == []

    def test_extra_findings_survive(self):
        result = LintResult(
            diagnostics=[_diagnostic(), _diagnostic(), _diagnostic()]
        )
        apply_baseline(result, Baseline(entries=(_entry(count=2),)))
        assert len(result.diagnostics) == 1
        assert result.baselined == 2

    def test_overcounting_entry_is_stale(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        result = LintResult(diagnostics=[_diagnostic()])
        apply_baseline(
            result, Baseline(entries=(_entry(count=3),)), root=tmp_path
        )
        assert result.baselined == 1
        assert len(result.stale_baseline) == 1
        assert "expects 3" in result.stale_baseline[0]

    def test_vanished_entry_is_stale(self):
        result = LintResult(diagnostics=[])
        apply_baseline(result, Baseline(entries=(_entry(),)))
        assert result.stale_baseline and result.baselined == 0

    def test_deleted_file_entry_is_reported_distinctly(self, tmp_path):
        # The entry's file is gone: the stale note must say so rather
        # than pretend the count merely drifted — a deleted file can
        # never match again, and its budget would otherwise absorb new
        # findings at the old signature.
        result = LintResult(diagnostics=[])
        apply_baseline(result, Baseline(entries=(_entry(),)), root=tmp_path)
        assert len(result.stale_baseline) == 1
        assert "no longer exists" in result.stale_baseline[0]
        assert "--update-baseline" in result.stale_baseline[0]

    def test_existing_file_entry_keeps_count_message(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        result = LintResult(diagnostics=[])
        apply_baseline(result, Baseline(entries=(_entry(),)), root=tmp_path)
        assert len(result.stale_baseline) == 1
        assert "expects 1" in result.stale_baseline[0]
        assert "no longer exists" not in result.stale_baseline[0]

    def test_message_mismatch_is_not_absorbed(self):
        result = LintResult(diagnostics=[_diagnostic(message="other")])
        apply_baseline(result, Baseline(entries=(_entry(),)))
        assert len(result.diagnostics) == 1
        assert result.baselined == 0


class TestUpdate:
    def test_preserves_reasons_for_surviving_entries(self):
        result = LintResult(diagnostics=[_diagnostic()])
        updated = update_baseline(
            result, previous=Baseline(entries=(_entry(reason="kept"),))
        )
        assert len(updated.entries) == 1
        assert updated.entries[0].reason == "kept"

    def test_new_entries_get_placeholder_reason(self):
        result = LintResult(diagnostics=[_diagnostic()])
        updated = update_baseline(result, previous=None)
        assert "TODO" in updated.entries[0].reason

    def test_counts_aggregate_identical_signatures(self):
        result = LintResult(diagnostics=[_diagnostic(), _diagnostic()])
        updated = update_baseline(result)
        assert updated.entries[0].count == 2

    def test_deleted_file_entries_are_purged(self):
        # Rebuilding from current findings drops entries whose file is
        # gone — nothing matches, so nothing carries over.
        result = LintResult(diagnostics=[])
        updated = update_baseline(
            result, previous=Baseline(entries=(_entry(),))
        )
        assert updated.entries == ()


def _write_finding_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstamp = time.time()\n")
    return bad


class TestCli:
    def test_baseline_absorbs_findings(self, tmp_path, capsys):
        _write_finding_file(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        assert (
            lint_cli(
                [
                    str(tmp_path),
                    "--baseline",
                    str(baseline_file),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert baseline_file.exists()
        capsys.readouterr()
        assert (
            lint_cli([str(tmp_path), "--baseline", str(baseline_file)]) == 0
        )
        output = capsys.readouterr().out
        assert "baselined" in output

    def test_new_finding_fails_despite_baseline(self, tmp_path):
        _write_finding_file(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        lint_cli(
            [
                str(tmp_path),
                "--baseline",
                str(baseline_file),
                "--update-baseline",
            ]
        )
        (tmp_path / "worse.py").write_text(
            "import time\nother = time.time()\n"
        )
        assert (
            lint_cli([str(tmp_path), "--baseline", str(baseline_file)]) == 1
        )

    def test_missing_baseline_is_usage_error(self, tmp_path):
        assert (
            lint_cli(
                [str(tmp_path), "--baseline", str(tmp_path / "absent.json")]
            )
            == 2
        )

    def test_update_requires_baseline_path(self, tmp_path):
        assert lint_cli([str(tmp_path), "--update-baseline"]) == 2

    def test_stale_baseline_fails_only_under_strict(self, tmp_path, capsys):
        _write_finding_file(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        lint_cli(
            [
                str(tmp_path),
                "--baseline",
                str(baseline_file),
                "--update-baseline",
            ]
        )
        (tmp_path / "bad.py").unlink()  # the baselined finding vanishes
        capsys.readouterr()
        assert (
            lint_cli([str(tmp_path), "--baseline", str(baseline_file)]) == 0
        )
        assert (
            lint_cli(
                [
                    str(tmp_path),
                    "--baseline",
                    str(baseline_file),
                    "--strict-suppressions",
                ]
            )
            == 1
        )
        assert "stale baseline entry" in capsys.readouterr().out

    def test_update_purges_deleted_file_entries(self, tmp_path, capsys):
        _write_finding_file(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        lint_cli(
            [
                str(tmp_path),
                "--baseline",
                str(baseline_file),
                "--update-baseline",
            ]
        )
        (tmp_path / "bad.py").unlink()
        capsys.readouterr()
        assert (
            lint_cli(
                [
                    str(tmp_path),
                    "--baseline",
                    str(baseline_file),
                    "--update-baseline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "purged baseline entry" in out
        assert json.loads(baseline_file.read_text())["entries"] == []

    def test_analyzer_crash_exits_two(self, tmp_path, monkeypatch, capsys):
        import repro.analysis.cli as cli_module

        def explode(paths, config, cache=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "lint_paths", explode)
        assert lint_cli([str(tmp_path)]) == 2
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err
