"""The repository must pass its own lint — the acceptance gate.

Every later PR that introduces an unseeded RNG, a wall-clock read, a
float equality, a missed dirty-flag invalidation, or a dtype slip into
``src/`` or ``benchmarks/`` fails here, at the step that introduced it.

An inline ``# meghlint: ignore[RULE] -- reason`` is the one way to
accept a finding: every such directive must fire (an unused one fails)
and must carry a written reason, and nothing else survives.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import LintResult, lint_paths, parse_module
from repro.analysis.engine import iter_python_files
from repro.analysis.reporting import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED = [REPO_ROOT / name for name in ("src", "benchmarks", "examples")]

#: Shortest reason accepted after a directive's ``--``.
MIN_REASON_CHARS = 20

_REASON = re.compile(r"#\s*meghlint:\s*ignore(?:\[[^\]]*\])?\s*--\s*(.*)$")


@pytest.fixture(scope="module")
def tree_result() -> LintResult:
    """One full lint of ``src benchmarks``, shared by every test here
    (the lint is the slow part)."""
    return lint_paths([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])


def test_source_tree_is_lint_clean(tree_result):
    assert tree_result.files_checked > 50
    assert tree_result.clean, "\n" + render_text(tree_result)


def test_no_unused_suppressions_in_tree(tree_result):
    """Every ``# meghlint: ignore`` in the tree actually fires."""
    assert not tree_result.unused_suppressions, "\n" + "\n".join(
        diagnostic.format() for diagnostic in tree_result.unused_suppressions
    )


def test_every_suppression_has_a_written_reason():
    """Each directive the engine honours says why the finding is
    accepted, in at least ``MIN_REASON_CHARS`` characters."""
    directives = 0
    unexplained = []
    for path in iter_python_files(LINTED):
        module = parse_module(path.read_text(encoding="utf-8"), str(path))
        for line in sorted(module.suppressions):
            directives += 1
            match = _REASON.search(module.source_lines[line - 1])
            reason = match.group(1).strip() if match else ""
            if len(reason) < MIN_REASON_CHARS:
                unexplained.append(f"{path}:{line}: {reason!r}")
    assert directives > 50
    assert not unexplained, (
        "write a reason of at least "
        f"{MIN_REASON_CHARS} characters after '--':\n" + "\n".join(unexplained)
    )


def test_examples_are_lint_clean():
    result = lint_paths([REPO_ROOT / "examples"])
    assert result.clean, "\n" + render_text(result)
    assert not result.unused_suppressions


#: A rule-ledger row of docs/static_analysis.md: rule id, then the
#: Defects and Suppressed cells.
_LEDGER_ROW = re.compile(r"^\| (MEGH\d{3}) [^|]*\|[^|]*\| ([^|]*) \|")


def test_rule_ledger_suppressed_column_matches_the_tool(tree_result):
    """The ledger's Suppressed column is re-counted from the per-rule
    map of ``repro lint --format json``, so it cannot drift."""
    summary = json.loads(render_json(tree_result))["summary"]
    by_rule = summary["suppressed_by_rule"]
    assert sum(by_rule.values()) == summary["suppressed"]
    ledger = (REPO_ROOT / "docs" / "static_analysis.md").read_text(
        encoding="utf-8"
    )
    listed = {}
    for line in ledger.splitlines():
        match = _LEDGER_ROW.match(line)
        if match is not None and match.group(2)[:1].isdigit():
            listed[match.group(1)] = int(match.group(2).split()[0])
    assert len(listed) >= 10
    assert listed == {
        rule: by_rule.get(rule, 0) for rule in listed
    }, "docs/static_analysis.md rule ledger is stale"
    assert set(by_rule) <= set(listed)
    assert f"({summary['suppressed']} in\nall" in ledger
