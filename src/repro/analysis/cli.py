"""``repro lint`` — the meghlint command-line front end.

Exit codes: 0 when clean, 1 when any finding survives suppression and
baseline (or, under ``--strict-suppressions``, when stale suppressions
or stale baseline entries exist), 2 on usage errors (unknown rule id,
missing path, malformed baseline) **and** on analyzer crashes — CI
treats 1 as "fix your findings" and 2 as "fix the linter".
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    apply_baseline,
    load_baseline,
    update_baseline,
)
from repro.analysis.cache import LintCache
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
        "--no-flow",
        action="store_true",
        help="skip the whole-program flow pass (MEGH010-MEGH012)",
    )
    parser.add_argument(
        "--no-shape",
        action="store_true",
        help=(
            "skip the meghshape symbolic-shape/ABI pass "
            "(MEGH019-MEGH023)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for the content-hash result cache; warm runs "
            "skip re-analysis of unchanged files"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "accepted-findings file; matching findings are absorbed "
            "so only new ones fail the run"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the --baseline file from the current findings "
            "(reasons carry over for surviving entries) and exit 0"
        ),
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help=(
            "fail (exit 1) on suppression comments that never fire "
            "and on stale baseline entries"
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
    if args.update_baseline and args.baseline is None:
        print("repro lint: error: --update-baseline requires --baseline")
        return 2
    try:
        config = LintConfig(
            select=_split_rule_ids(args.select),
            ignore=_split_rule_ids(args.ignore),
            flow=not args.no_flow,
            shape=not args.no_shape,
        )
        config.validate()  # fail on unknown ids before touching the fs
        previous: Optional[Baseline] = None
        if args.baseline is not None and not args.update_baseline:
            previous = load_baseline(args.baseline)
        elif args.update_baseline and Path(args.baseline).exists():
            previous = load_baseline(args.baseline)
    except (ValueError, FileNotFoundError, BaselineError) as error:
        print(f"repro lint: error: {error}")
        return 2
    try:
        cache = (
            LintCache(args.cache_dir) if args.cache_dir is not None else None
        )
        result = lint_paths(args.paths, config, cache=cache)
        if args.update_baseline:
            fresh = update_baseline(result, previous)
            fresh.save(args.baseline)
            if previous is not None:
                surviving = {entry.key() for entry in fresh.entries}
                for entry in previous.entries:
                    if entry.key() not in surviving:
                        print(
                            f"repro lint: purged baseline entry "
                            f"{entry.rule} for {entry.path} (no matching "
                            "finding remains)"
                        )
            print(
                f"repro lint: baseline {args.baseline} updated with "
                f"{len(fresh.entries)} entr"
                + ("y" if len(fresh.entries) == 1 else "ies")
            )
            return 0
        if previous is not None:
            apply_baseline(result, previous)
    except (ValueError, FileNotFoundError) as error:
        print(f"repro lint: error: {error}")
        return 2
    except Exception as error:  # noqa: BLE001 — crash, not finding
        print(f"repro lint: internal error: {type(error).__name__}: {error}")
        return 2
    strict_failures = args.strict_suppressions and (
        bool(result.unused_suppressions) or bool(result.stale_baseline)
    )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, strict=args.strict_suppressions))
    if not result.clean:
        return 1
    return 1 if strict_failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
