"""The repository must pass its own lint — the acceptance gate.

Every later PR that introduces an unseeded RNG, a wall-clock read, a
float equality, a missed dirty-flag invalidation, or a dtype slip into
``src/`` or ``benchmarks/`` fails here, at the step that introduced it.

The committed baseline (``analysis/baseline.json``) must match reality
*exactly*: every entry absorbs precisely its counted findings (a stale
entry fails), every in-source suppression fires (an unused one fails),
and nothing else survives.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    LintResult,
    apply_baseline,
    lint_paths,
    load_baseline,
)
from repro.analysis.reporting import render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "analysis" / "baseline.json"


@pytest.fixture(scope="module")
def tree_result() -> LintResult:
    """One full lint of ``src benchmarks`` with the baseline applied,
    shared by every test here (the lint is the slow part)."""
    result = lint_paths([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    apply_baseline(result, load_baseline(BASELINE), root=REPO_ROOT)
    return result


def test_source_tree_is_lint_clean(tree_result):
    assert tree_result.files_checked > 50
    assert tree_result.clean, "\n" + render_text(tree_result)


def test_committed_baseline_is_exact(tree_result):
    """The baseline neither over- nor under-counts current findings."""
    result = tree_result
    baseline = load_baseline(BASELINE)
    expected = sum(entry.count for entry in baseline.entries)
    assert result.baselined == expected, (
        f"baseline declares {expected} finding(s) but {result.baselined} "
        "matched — run: repro lint src benchmarks "
        "--baseline analysis/baseline.json --update-baseline"
    )
    assert not result.stale_baseline, "\n".join(result.stale_baseline)


def test_committed_baseline_reasons_are_written():
    baseline = load_baseline(BASELINE)
    for entry in baseline.entries:
        assert "TODO" not in entry.reason, (
            f"{entry.path} ({entry.rule}): replace the placeholder reason "
            "with a real justification before committing"
        )
        assert len(entry.reason.strip()) >= 20, (
            f"{entry.path} ({entry.rule}): reason too short to justify "
            "an accepted finding"
        )


def test_no_unused_suppressions_in_tree(tree_result):
    """Every ``# meghlint: ignore`` in the tree actually fires."""
    assert not tree_result.unused_suppressions, "\n" + "\n".join(
        diagnostic.format() for diagnostic in tree_result.unused_suppressions
    )


def test_examples_are_lint_clean():
    result = lint_paths([REPO_ROOT / "examples"])
    assert result.clean, "\n" + render_text(result)
    assert not result.unused_suppressions