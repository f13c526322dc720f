"""Reporters: human-readable text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from pathlib import PurePath
from typing import Any, Dict, List

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.engine import UNUSED_SUPPRESSION_RULE, LintResult


def render_text(result: LintResult, strict: bool = False) -> str:
    """One line per finding plus a summary, ruff/flake8 style.

    Unused-suppression notes print after the findings; with ``strict``
    they are labelled as failures (the CLI turns them into exit code 1).
    """
    lines = [diagnostic.format() for diagnostic in result.diagnostics]
    for diagnostic in result.unused_suppressions:
        lines.append(diagnostic.format())
    noun = "file" if result.files_checked == 1 else "files"
    if result.clean:
        summary = f"meghlint: ok — {result.files_checked} {noun} checked"
    else:
        summary = (
            f"meghlint: {len(result.diagnostics)} finding(s) "
            f"({result.errors} error(s), {result.warnings} warning(s)) "
            f"in {result.files_checked} {noun}"
        )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    stale = len(result.unused_suppressions)
    if stale:
        summary += (
            f", {stale} stale suppression"
            + ("" if stale == 1 else "s")
            + (" (failing: --strict-suppressions)" if strict else "")
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable JSON document for CI and tooling."""
    document = {
        "tool": "meghlint",
        "version": 1,
        "summary": {
            "files_checked": result.files_checked,
            "findings": len(result.diagnostics),
            "errors": result.errors,
            "warnings": result.warnings,
            "suppressed": result.suppressed,
            "suppressed_by_rule": dict(result.suppressed_by_rule),
            "unused_suppressions": len(result.unused_suppressions),
            "clean": result.clean,
        },
        "diagnostics": [
            diagnostic.to_dict() for diagnostic in result.diagnostics
        ],
        "unused_suppressions": [
            diagnostic.to_dict() for diagnostic in result.unused_suppressions
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _sarif_rules() -> List[Dict[str, Any]]:
    """Every registered rule, for the SARIF driver's rule table."""
    from repro.analysis.flow import FLOW_RULES
    from repro.analysis.rules import RULE_REGISTRY, all_rule_ids
    from repro.analysis.shape import SHAPE_RULES

    rules: List[Dict[str, Any]] = []
    for rule_id in all_rule_ids():
        rule_class = RULE_REGISTRY[rule_id]
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": rule_class.summary},
                "defaultConfiguration": {
                    "level": str(rule_class.severity)
                },
            }
        )
    for table in (FLOW_RULES, SHAPE_RULES):
        for rule_id in sorted(table):
            severity, summary = table[rule_id]
            rules.append(
                {
                    "id": rule_id,
                    "shortDescription": {"text": summary},
                    "defaultConfiguration": {"level": str(severity)},
                }
            )
    rules.append(
        {
            "id": UNUSED_SUPPRESSION_RULE,
            "shortDescription": {
                "text": "suppression directive that never fires"
            },
            "defaultConfiguration": {"level": "warning"},
        }
    )
    return rules


def _sarif_result(diagnostic: Diagnostic) -> Dict[str, Any]:
    level = "error" if diagnostic.severity is Severity.ERROR else "warning"
    return {
        "ruleId": diagnostic.rule_id,
        "level": level,
        "message": {"text": diagnostic.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": PurePath(diagnostic.path).as_posix(),
                    },
                    "region": {
                        "startLine": diagnostic.line,
                        "startColumn": max(diagnostic.column, 1),
                    },
                }
            }
        ],
    }


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 document (``repro lint --format sarif``).

    One run, one driver ("meghlint"), every registered rule in the
    driver's rule table so code-scanning UIs can show titles.  Findings
    and unused-suppression notes both become results; suppressed
    findings are — by definition — absent.
    """
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "meghlint",
                        "rules": _sarif_rules(),
                    }
                },
                "results": [
                    _sarif_result(diagnostic)
                    for diagnostic in (
                        list(result.diagnostics)
                        + list(result.unused_suppressions)
                    )
                ],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
