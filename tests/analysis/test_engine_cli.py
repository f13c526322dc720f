"""Engine behaviour (suppressions, walking, reporters) and the lint CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.cli import run as lint_cli
from repro.analysis.reporting import render_sarif
from repro.cli import main as repro_main

VIOLATING = "import time\nstart = time.time()\nx = start == 0.0\n"
CLEAN = "import time\nstart = time.perf_counter()\n"


class TestSuppressions:
    def test_targeted_ignore_suppresses_only_that_rule(self):
        source = "x = 1.5\nok = x == 1.5  # meghlint: ignore[MEGH003] -- sentinel set two lines up\n"
        result = lint_source(source)
        assert result.diagnostics == []
        assert result.suppressed == 1

    def test_ignore_of_other_rule_does_not_suppress(self):
        source = "x = 1.5\nok = x == 1.5  # meghlint: ignore[MEGH004]\n"
        result = lint_source(source)
        assert len(result.diagnostics) == 1

    def test_blanket_ignore_suppresses_all_rules_on_line(self):
        source = "import time\nt = time.time() == 0.0  # meghlint: ignore\n"
        result = lint_source(source)
        assert result.diagnostics == []
        assert result.suppressed == 2

    def test_skip_file_marker(self):
        source = "# meghlint: skip-file\nimport time\nt = time.time()\n"
        result = lint_source(source)
        assert result.diagnostics == []
        assert result.files_checked == 1

    def test_syntax_error_reported_as_megh000(self):
        result = lint_source("def broken(:\n")
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].rule_id == "MEGH000"


class TestPathWalking:
    def test_lints_directories_recursively(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "bad.py").write_text(VIOLATING)
        (package / "good.py").write_text(CLEAN)
        result = lint_paths([tmp_path])
        assert result.files_checked == 2
        assert {d.rule_id for d in result.diagnostics} == {
            "MEGH002",
            "MEGH003",
        }

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_pycache_excluded(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text(VIOLATING)
        result = lint_paths([tmp_path])
        assert result.files_checked == 0


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        result = lint_paths([tmp_path])
        text = render_text(result)
        assert "bad.py:2:9: MEGH002" in text
        assert "meghlint:" in text.splitlines()[-1]

    def test_text_report_clean_summary(self, tmp_path):
        (tmp_path / "good.py").write_text(CLEAN)
        text = render_text(lint_paths([tmp_path]))
        assert "ok" in text

    def test_json_report_round_trips(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        document = json.loads(render_json(lint_paths([tmp_path])))
        assert document["tool"] == "meghlint"
        assert document["summary"]["findings"] == 2
        assert document["summary"]["clean"] is False
        rules = {d["rule"] for d in document["diagnostics"]}
        assert rules == {"MEGH002", "MEGH003"}

    def test_sarif_report_is_valid_and_complete(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATING)
        document = json.loads(render_sarif(lint_paths([tmp_path])))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "meghlint"
        # Every rule the engine knows — per-file, flow, shape, and the
        # MEGH013 meta-rule — is described in the driver metadata.
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for rule_id in ("MEGH002", "MEGH010", "MEGH021", "MEGH013"):
            assert rule_id in rule_ids
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"MEGH002", "MEGH003"}
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2


class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text(CLEAN)
        assert lint_cli([str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_exit_one_with_readable_report_on_findings(
        self, tmp_path, capsys
    ):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_cli([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "MEGH002" in out and "MEGH003" in out
        assert "finding(s)" in out

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_cli(["--select", "MEGH004", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_ignore_drops_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        code = lint_cli(
            ["--ignore", "MEGH002,MEGH003", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        assert lint_cli(["--select", "MEGH999", str(tmp_path)]) == 2
        assert "MEGH999" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_cli([str(tmp_path / "ghost")]) == 2
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_cli(["--format", "json", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 1

    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert lint_cli(["--format", "sarif", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert len(document["runs"][0]["results"]) == 2

    def test_list_rules(self, capsys):
        assert lint_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MEGH001", "MEGH006"):
            assert rule_id in out
        assert "MEGH021" in out and "(shape)" in out


class TestReproCliIntegration:
    def test_lint_subcommand_dispatches(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(VIOLATING)
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "MEGH002" in capsys.readouterr().out

    def test_lint_listed_in_experiment_list(self, capsys):
        assert repro_main(["list"]) == 0
        assert "lint" in capsys.readouterr().out
