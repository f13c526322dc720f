"""Fixture-driven tests for the seeded-RNG, dirty-flag and dtype rules.

Each fixture under ``fixtures/<case>/`` is a miniature project — a
``repro`` package tree that is *parsed, never imported* — holding a
seeded-in defect (positive case) or its repaired twin (negative case).
The tests lint each case directory whole: the RNG defect (MEGH001) is
reported at its creation site however far the value travels, the
dirty-flag defect (MEGH011, meghflow) hides on one branch of a
conditional, and the dtype defects (MEGH012, meghshape) live in
declared hot packages.
"""

from __future__ import annotations

from pathlib import Path

import repro.analysis.engine as engine_module
from repro.analysis import FLOW_RULES, LintConfig, lint_paths
from repro.analysis.shape import SHAPE_RULES

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _findings(case: str, rule: str):
    config = LintConfig(select=[rule])
    result = lint_paths([FIXTURES / case], config)
    assert not any(d.rule_id == "MEGH000" for d in result.diagnostics), (
        "fixture must parse"
    )
    return [d for d in result.diagnostics if d.rule_id == rule]


class TestRngProvenance:
    def test_unseeded_generator_crossing_two_hops_is_reported(self):
        findings = _findings("rng_flow_positive", "MEGH001")
        assert len(findings) == 1
        finding = findings[0]
        # Anchored at the creation site, where the fix belongs, however
        # many call hops the value takes to reach repro.cloudsim.
        assert finding.path.endswith("runner.py")
        assert finding.line == 9
        assert "without a seed" in finding.message

    def test_seeded_generator_is_silent(self):
        assert _findings("rng_flow_negative", "MEGH001") == []

    def test_every_factory_spelling_and_import_alias_is_reported(self):
        findings = _findings("rng_alias_spellings", "MEGH001")
        assert [f.line for f in findings] == [12, 13, 14, 15, 16]
        assert all("without a seed" in f.message for f in findings)
        messages = " | ".join(f.message for f in findings)
        for spelling in (
            "np.random.RandomState()",
            "np.random.PCG64()",
            "random.Random()",
            "npr.default_rng()",
            "default_rng()",
        ):
            assert spelling in messages


class TestDirtyFlags:
    def test_mark_missing_on_one_path_is_reported(self):
        findings = _findings("dirty_branch_positive", "MEGH011")
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("vm_demand" in message for message in messages)
        assert any("vm_delivered" in message for message in messages)
        for finding in findings:
            assert "every path" in finding.message

    def test_marks_on_every_path_are_silent(self):
        assert _findings("dirty_branch_negative", "MEGH011") == []


class TestCounterClosure:
    """Counter obligations discharged through helper methods.

    ``PendingUpdates`` (repro/core/kern.py) retires its staged window
    via ``_reset``, which owns the ``mutations`` bump — the closure
    must admit helpers that *always* bump and refuse ones that can
    return first.
    """

    def test_conditional_helper_does_not_discharge(self):
        findings = _findings("counter_closure_positive", "MEGH011")
        assert len(findings) == 1
        finding = findings[0]
        assert "_pend_rows_n" in finding.message
        assert "bump self.mutations" in finding.message

    def test_unconditional_helpers_discharge_transitively(self):
        assert _findings("counter_closure_negative", "MEGH011") == []


class TestDtypeDiscipline:
    def test_bad_dtype_axis_mix_and_python_sum_are_reported(self):
        findings = _findings("dtype_positive", "MEGH012")
        messages = [f.message for f in findings]
        assert any("int32" in message for message in messages)
        assert any(
            "per-VM (N) and a per-PM (M)" in message for message in messages
        )
        assert any("built-in sum()" in message for message in messages)
        assert len(findings) == 3

    def test_repaired_module_is_silent(self):
        assert _findings("dtype_negative", "MEGH012") == []

    def test_uint8_is_accepted_only_for_declared_abi_buffers(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "flags.py").write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "class Flags:\n"
            "    def __init__(self):\n"
            "        self._cand = np.empty(256, dtype=np.uint8)\n"
            "        self._marks = np.zeros(8, dtype=np.uint8)\n"
            "        self._stats = np.zeros(4, dtype=np.uint8)\n"
        )
        result = lint_paths([tmp_path], LintConfig(select=["MEGH012"]))
        # ``_cand`` is a declared uint8 C flag buffer; ``_marks`` is not
        # declared at all and ``_stats`` is declared int64.
        assert [(d.line, str(d.severity)) for d in result.diagnostics] == [
            (7, "error"),
            (8, "error"),
        ]
        assert all("'np.uint8'" in d.message for d in result.diagnostics)


class TestFlowToggles:
    def test_no_flow_config_skips_flow_rules(self, monkeypatch):
        """Ignoring every whole-program rule skips the pass entirely:
        no project model is built."""
        builds = []
        monkeypatch.setattr(engine_module, "build_project", builds.append)
        config = LintConfig(ignore=sorted(FLOW_RULES) + sorted(SHAPE_RULES))
        result = lint_paths([FIXTURES / "dirty_branch_positive"], config)
        assert builds == []
        assert not any(d.rule_id in FLOW_RULES for d in result.diagnostics)

    def test_flow_findings_honour_line_suppressions(self, tmp_path):
        package = tmp_path / "repro" / "cloudsim"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            "def touch(arrays, i):\n"
            "    arrays.vm_demand[i] = 1.0"
            "  # meghlint: ignore[MEGH011] -- test fixture\n"
        )
        config = LintConfig(select=["MEGH011"])
        result = lint_paths([tmp_path], config)
        assert result.diagnostics == []
        assert result.suppressed == 1
        assert result.unused_suppressions == []
