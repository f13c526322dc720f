"""Fixture-driven tests for the meghshape rules (MEGH019–MEGH023).

Each fixture under ``fixtures/<case>/`` is a miniature project — a
``repro`` package tree that is *parsed, never imported* — holding
seeded-in defects (positive case) or their repaired twin (negative
case).  The positives prove each rule fires on the exact hazard class
it documents (broadcast conflicts, dtype drift, unwitnessed ABI
pointers, contract violations, in-place aliasing) and the negatives
prove the sanctioned repair idioms stay silent.

The second half pins the architecture: meghshape runs over the *same*
project model instance as meghflow and meghpar (parse-once extends to
resolve-once), the MEGH021 certification over the real repository is
non-vacuous (every buffer entering the C argument block carries a
witnessed construction chain), and the content-hash cache replays
shape findings exactly (cold == warm).
"""

from __future__ import annotations

from pathlib import Path

import repro.analysis.engine as engine_module
from repro.analysis import LintConfig, lint_paths
from repro.analysis.cache import (
    LintCache,
    _toolchain_hash,
    _toolchain_sources,
)
from repro.analysis.engine import iter_python_files, parse_module
from repro.analysis.flow import build_project
from repro.analysis.shape import (
    ABI_BUFFER_DTYPES,
    SHAPE_RULES,
    run_shape,
)
from repro.analysis.shape.abi import check_kernel_abi

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


def _findings(case: str, rule: str):
    config = LintConfig(select=[rule])
    result = lint_paths([FIXTURES / case], config)
    assert not any(d.rule_id == "MEGH000" for d in result.diagnostics), (
        "fixture must parse"
    )
    return [d for d in result.diagnostics if d.rule_id == rule]


def _build_fixture_project(case: str):
    parsed = []
    for file_path in iter_python_files([FIXTURES / case]):
        module = parse_module(
            file_path.read_text(encoding="utf-8"), path=str(file_path)
        )
        if module.tree is not None and not module.skipped:
            parsed.append((module.path, module.tree))
    return build_project(parsed)


class TestBroadcastRank:
    def test_conflict_errors_and_promotion_warns(self):
        findings = _findings("shape_broadcast_positive", "MEGH019")
        assert len(findings) == 2
        conflict, promotion = sorted(findings, key=lambda d: d.line)
        assert str(conflict.severity) == "error"
        assert "(K, M)" in conflict.message and "(N,)" in conflict.message
        assert "M vs N" in conflict.message
        assert str(promotion.severity) == "warning"
        assert "rank promotion" in promotion.message
        # The warning teaches both sanctioned repairs.
        assert "[None, :]" in promotion.message
        assert "meghlint: ignore[MEGH019]" in promotion.message

    def test_declared_unit_axis_and_bincount_gather_are_clean(self):
        assert _findings("shape_broadcast_negative", "MEGH019") == []


class TestDtypeDrift:
    def test_platform_int_field_and_return_drift_are_reported(self):
        findings = _findings("shape_dtype_positive", "MEGH020")
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "platform int" in messages
        assert "field '_pm_demand_mips'" in messages
        assert "method 'pm_demand_mips'" in messages

    def test_canonical_dtypes_are_clean(self):
        assert _findings("shape_dtype_negative", "MEGH020") == []


class TestKernelAbi:
    def test_mismatch_rebind_and_raw_pointer_are_reported(self):
        findings = _findings("shape_abi_positive", "MEGH021")
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "declared int64" in messages
        assert "constructed with dtype float64" in messages
        assert "rebound" in messages
        assert "no witnessed path" in messages

    def test_witnessed_constructions_are_clean(self):
        assert _findings("shape_abi_negative", "MEGH021") == []

    def test_every_certification_path_carries_a_witness(self):
        """Direct report inspection: declared attribute, local alias,
        owning local, and contracted parameter all certify with a
        human-readable provenance chain."""
        report = check_kernel_abi(_build_fixture_project("shape_abi_negative"))
        assert report.diagnostics == []
        witnesses = {c.buffer: c.witness for c in report.certificates}
        assert "constructed at" in witnesses["_cmb_val"]
        assert "alias 'cmb' -> '_cmb_idx'" in [
            c.witness for c in report.certificates if c.buffer == "_cmb_idx"
        ][-1]
        assert "local owning constructor" in witnesses["scratch"]
        assert "discharged at call sites by MEGH022" in witnesses["rows"]
        assert report.certified_buffers() >= {
            "_cmb_idx",
            "_cmb_val",
            "scratch",
            "rows",
            "starts",
        }


class TestShapeContracts:
    def test_dtype_rank_and_ownership_violations_are_reported(self):
        findings = _findings("shape_contract_positive", "MEGH022")
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "dtype float64 != declared int64" in messages
        assert "rank 2" in messages
        assert "requires an owned" in messages
        # Every violation names the contracted callee in its witness.
        assert all(
            "[witness: " in f.message
            and "repro.core.staging.Staging" in f.message
            for f in findings
        )
        assert "columns@repro.core.kern.PendingUpdates.enqueue" in messages
        assert "rows@repro.core.kern.CKernel.replay_rows" in messages

    def test_satisfying_arguments_are_clean(self):
        assert _findings("shape_contract_negative", "MEGH022") == []


class TestInPlaceAliasing:
    def test_overlapping_out_and_copyto_are_reported(self):
        findings = _findings("shape_aliasing_positive", "MEGH023")
        assert len(findings) == 2
        assert all(
            "views of" in f.message and "different region" in f.message
            for f in findings
        )
        messages = " | ".join(f.message for f in findings)
        assert "self._vals_flat" in messages
        assert "self._cols_flat" in messages

    def test_copy_before_write_and_self_assignment_are_clean(self):
        assert _findings("shape_aliasing_negative", "MEGH023") == []


class TestRegistryAndEngineIntegration:
    def test_shape_rules_are_registered_with_the_engine(self):
        assert set(SHAPE_RULES) == {
            "MEGH019",
            "MEGH020",
            "MEGH021",
            "MEGH022",
            "MEGH023",
        }
        assert SHAPE_RULES.keys() <= engine_module._ENGINE_RULE_IDS

    def test_no_shape_config_disables_the_pass(self):
        config = LintConfig(shape=False)
        result = lint_paths([FIXTURES / "shape_dtype_positive"], config)
        assert not any(
            d.rule_id in SHAPE_RULES for d in result.diagnostics
        )

    def test_select_shape_rule_validates(self):
        LintConfig(select=["MEGH021"]).validate()

    def test_flow_par_and_shape_share_one_project(self, monkeypatch):
        """Resolve-once covers all three whole-program passes: one
        project model built, handed to flow, par, and shape alike."""
        builds = []
        seen = {}
        real_build = engine_module.build_project
        real_flow = engine_module.run_flow
        real_par = engine_module.run_par
        real_shape = engine_module.run_shape

        def recording_build(parsed):
            project = real_build(parsed)
            builds.append(project)
            return project

        def recording_flow(parsed, select, ignore, project=None, graph=None):
            seen["flow"] = project
            return real_flow(
                parsed, select, ignore, project=project, graph=graph
            )

        def recording_par(parsed, select, ignore, project=None, graph=None):
            seen["par"] = project
            return real_par(
                parsed, select, ignore, project=project, graph=graph
            )

        def recording_shape(parsed, select, ignore, project=None, graph=None):
            seen["shape"] = project
            return real_shape(
                parsed, select, ignore, project=project, graph=graph
            )

        monkeypatch.setattr(engine_module, "build_project", recording_build)
        monkeypatch.setattr(engine_module, "run_flow", recording_flow)
        monkeypatch.setattr(engine_module, "run_par", recording_par)
        monkeypatch.setattr(engine_module, "run_shape", recording_shape)
        lint_paths([FIXTURES / "shape_dtype_positive"])
        assert len(builds) == 1
        assert seen["flow"] is builds[0]
        assert seen["par"] is builds[0]
        assert seen["shape"] is builds[0]

    def test_run_shape_without_shared_project_builds_its_own(self):
        source = "def f():\n    return 1\n"
        module = parse_module(source, path="standalone.py")
        assert module.tree is not None
        assert run_shape([(module.path, module.tree)]) == []


class TestRepositoryAbiCoverage:
    def test_every_c_boundary_read_is_certified(self):
        """The acceptance bar for MEGH021: on the real tree, zero
        uncertified ``.ctypes`` reads, and the certificate set covers a
        substantial majority of the declared ABI buffers (the handful
        of staging vectors that never cross the boundary directly flow
        through contracted ``replay_rows`` parameters instead)."""
        parsed = []
        for file_path in iter_python_files([REPO_ROOT / "src"]):
            module = parse_module(
                file_path.read_text(encoding="utf-8"), path=str(file_path)
            )
            if module.tree is not None and not module.skipped:
                parsed.append((module.path, module.tree))
        report = check_kernel_abi(build_project(parsed))
        assert report.diagnostics == []
        assert len(report.certificates) >= 50
        certified = report.certified_buffers()
        declared = set(ABI_BUFFER_DTYPES)
        assert len(certified & declared) >= 30
        assert all("constructed at" in c.witness or "contract on" in c.witness
                   or "owning constructor" in c.witness
                   for c in report.certificates)


class TestCacheReplay:
    def _signatures(self, result):
        return sorted(
            (d.path, d.line, d.rule_id, d.message)
            for d in result.diagnostics
        )

    def test_shape_findings_replay_exactly(self, tmp_path):
        """Cold == warm: shape diagnostics come back identical from the
        whole-program cache record, with zero per-file misses."""
        fixture = FIXTURES / "shape_contract_positive"
        cold = lint_paths([fixture], cache=LintCache(tmp_path / "cache"))
        warm = lint_paths([fixture], cache=LintCache(tmp_path / "cache"))
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0
        assert self._signatures(cold) == self._signatures(warm)
        assert sum(
            1 for d in warm.diagnostics if d.rule_id == "MEGH022"
        ) == 3

    def test_toolchain_hash_covers_the_shape_analyzer(self):
        sources = _toolchain_sources()
        names = {p.name for p in sources}
        shape_dir = (
            REPO_ROOT / "src" / "repro" / "analysis" / "shape"
        ).resolve()
        assert any(
            shape_dir in p.resolve().parents for p in sources
        ), names
        assert {"dims.py", "absint.py", "abi.py"} <= names

    def test_mutating_analyzer_source_busts_the_cache(self, tmp_path):
        """The regression the checklist demands: editing an analyzer
        module changes the toolchain hash, so every cached record is
        invalidated on the next run."""
        shadow = tmp_path / "analysis"
        shadow.mkdir()
        (shadow / "rules.py").write_text("THRESHOLD = 1\n")
        before = _toolchain_hash(package_root=shadow)
        (shadow / "rules.py").write_text("THRESHOLD = 2\n")
        after = _toolchain_hash(package_root=shadow)
        assert before != after
        # And a comment-only no-op still invalidates — the hash is over
        # bytes, deliberately conservative.
        (shadow / "rules.py").write_text("THRESHOLD = 2  # note\n")
        assert _toolchain_hash(package_root=shadow) != after
