"""``repro lint`` — the meghlint command-line front end.

Exit codes: 0 when clean, 1 when any finding survives suppression (or,
under ``--strict-suppressions``, when a suppression never fires), 2 on
usage errors (unknown rule id, missing path) **and** on analyzer crashes
— CI treats 1 as "fix your findings" and 2 as "fix the linter".
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import (
    UNUSED_SUPPRESSION_RULE,
    LintConfig,
    lint_paths,
)
from repro.analysis.flow import FLOW_RULES
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.rules import RULE_REGISTRY, all_rule_ids
from repro.analysis.shape import SHAPE_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "meghlint: static analysis for determinism, numerical "
            "safety, and simulator invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "report format (default: text); sarif emits a SARIF 2.1.0 "
            "document for code-scanning upload"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help=(
            "fail (exit 1) on suppression comments that never fire"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_rule_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def _error(message: str) -> int:
    """Report a usage error or analyzer crash on stderr; exit code 2."""
    print(f"repro lint: {message}", file=sys.stderr)
    return 2


def _print_rules() -> None:
    for rule_id in all_rule_ids():
        rule_class = RULE_REGISTRY[rule_id]
        print(f"{rule_id} [{rule_class.severity}] {rule_class.summary}")
    for rule_id in sorted(FLOW_RULES):
        severity, summary = FLOW_RULES[rule_id]
        print(f"{rule_id} [{severity}] {summary} (flow)")
    for rule_id in sorted(SHAPE_RULES):
        severity, summary = SHAPE_RULES[rule_id]
        print(f"{rule_id} [{severity}] {summary} (shape)")
    print(
        f"{UNUSED_SUPPRESSION_RULE} [warning] suppression directive that "
        "never fires (engine; failing under --strict-suppressions)"
    )


def run(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro lint``; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    try:
        config = LintConfig(
            select=_split_rule_ids(args.select),
            ignore=_split_rule_ids(args.ignore),
        )
        result = lint_paths(args.paths, config)
    except (ValueError, FileNotFoundError) as error:
        return _error(f"error: {error}")
    except Exception as error:  # noqa: BLE001 — crash, not finding
        return _error(f"internal error: {type(error).__name__}: {error}")
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, strict=args.strict_suppressions))
    stale = args.strict_suppressions and bool(result.unused_suppressions)
    return 1 if not result.clean or stale else 0


if __name__ == "__main__":
    raise SystemExit(run())
