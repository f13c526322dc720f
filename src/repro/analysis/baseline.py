"""Findings baseline: accepted findings, each with a written reason.

A baseline lets the flow rules gate CI on *no new findings* while the
accepted ones stay visible and justified.  The committed file
(``analysis/baseline.json``) is a list of entries::

    {
      "path": "src/repro/core/sparse.py",
      "rule": "MEGH011",
      "message": "...exact diagnostic message...",
      "count": 2,
      "reason": "why these findings are accepted"
    }

Matching is by (repo-relative posix path, rule id, message) with a
count — line numbers are deliberately excluded so unrelated edits do
not churn the file.  ``apply_baseline`` removes up to ``count``
matching diagnostics from a :class:`~repro.analysis.engine.LintResult`
(tallied in ``result.baselined``); an entry that matches fewer
findings than its count is *stale* and lands in
``result.stale_baseline`` — under ``--strict-suppressions`` stale
entries fail the run, which keeps the baseline shrinking as findings
get fixed.

``repro lint --update-baseline`` rewrites the file from the current
findings, preserving reasons for entries that survive; new entries get
a placeholder reason that a human must replace before committing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic

__all__ = [
    "BaselineEntry",
    "Baseline",
    "BaselineError",
    "load_baseline",
    "apply_baseline",
    "update_baseline",
    "normalize_path",
    "PLACEHOLDER_REASON",
]

PLACEHOLDER_REASON = "TODO: justify this accepted finding"


class BaselineError(ValueError):
    """The baseline file is missing, unreadable, or malformed."""


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding signature."""

    path: str
    rule: str
    message: str
    count: int
    reason: str

    def key(self) -> Tuple[str, str, str]:
        return (self.path, self.rule, self.message)


@dataclass(frozen=True)
class Baseline:
    """An ordered set of accepted-finding entries."""

    entries: Tuple[BaselineEntry, ...] = ()

    def by_key(self) -> Dict[Tuple[str, str, str], BaselineEntry]:
        return {entry.key(): entry for entry in self.entries}

    def save(self, path: Union[str, Path]) -> None:
        document = {
            "tool": "meghlint",
            "version": 1,
            "entries": [
                {
                    "path": entry.path,
                    "rule": entry.rule,
                    "message": entry.message,
                    "count": entry.count,
                    "reason": entry.reason,
                }
                for entry in self.entries
            ],
        }
        Path(path).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def load_baseline(path: Union[str, Path]) -> Baseline:
    """Parse a baseline file, validating shape and reasons."""
    file_path = Path(path)
    try:
        document = json.loads(file_path.read_text(encoding="utf-8"))
    except FileNotFoundError as error:
        raise BaselineError(f"no such baseline file: {file_path}") from error
    except json.JSONDecodeError as error:
        raise BaselineError(
            f"baseline {file_path} is not valid JSON: {error}"
        ) from error
    if not isinstance(document, dict) or not isinstance(
        document.get("entries"), list
    ):
        raise BaselineError(
            f"baseline {file_path} must be an object with an 'entries' list"
        )
    entries: List[BaselineEntry] = []
    for position, raw in enumerate(document["entries"]):
        if not isinstance(raw, dict):
            raise BaselineError(
                f"baseline {file_path}: entry {position} is not an object"
            )
        try:
            entry = BaselineEntry(
                path=str(raw["path"]),
                rule=str(raw["rule"]),
                message=str(raw["message"]),
                count=int(raw.get("count", 1)),
                reason=str(raw["reason"]),
            )
        except KeyError as error:
            raise BaselineError(
                f"baseline {file_path}: entry {position} is missing "
                f"required field {error}"
            ) from error
        except (TypeError, ValueError) as error:
            raise BaselineError(
                f"baseline {file_path}: entry {position} has a count that "
                f"is not an integer: {raw.get('count')!r}"
            ) from error
        if entry.count < 1:
            raise BaselineError(
                f"baseline {file_path}: entry {position} has count < 1"
            )
        if not entry.reason.strip():
            raise BaselineError(
                f"baseline {file_path}: entry {position} "
                f"({entry.rule} in {entry.path}) has an empty reason — "
                "every accepted finding needs a written justification"
            )
        entries.append(entry)
    return Baseline(entries=tuple(entries))


def normalize_path(path: str, root: Optional[Path] = None) -> str:
    """Repo-relative posix form of a diagnostic path, for matching."""
    candidate = Path(path)
    base = root if root is not None else Path.cwd()
    try:
        candidate = candidate.resolve().relative_to(base.resolve())
    except (ValueError, OSError):
        pass
    return candidate.as_posix()


def diagnostic_key(
    diagnostic: Diagnostic, root: Optional[Path] = None
) -> Tuple[str, str, str]:
    return (
        normalize_path(diagnostic.path, root),
        diagnostic.rule_id,
        diagnostic.message,
    )


def apply_baseline(
    result: "LintResultLike",
    baseline: Baseline,
    root: Optional[Path] = None,
) -> None:
    """Remove baselined findings from ``result`` in place.

    Updates ``result.baselined`` with the number of findings absorbed
    and ``result.stale_baseline`` with a line per entry whose count no
    longer matches reality (over-counted or vanished).
    """
    budgets: Dict[Tuple[str, str, str], int] = {
        entry.key(): entry.count for entry in baseline.entries
    }
    remaining: List[Diagnostic] = []
    for diagnostic in result.diagnostics:
        key = diagnostic_key(diagnostic, root)
        if budgets.get(key, 0) > 0:
            budgets[key] -= 1
            result.baselined += 1
        else:
            remaining.append(diagnostic)
    result.diagnostics[:] = remaining
    base = root if root is not None else Path.cwd()
    for entry in baseline.entries:
        unmatched = budgets.get(entry.key(), 0)
        if unmatched <= 0:
            continue
        if not (base / entry.path).exists():
            # A deleted or renamed file can never match again; without
            # this note the entry silently retains a findings budget
            # that new code at the old signature would spend.
            result.stale_baseline.append(
                f"{entry.path}: {entry.rule} baseline entry points at a "
                "file that no longer exists — purge it "
                "(repro lint --update-baseline)"
            )
        else:
            result.stale_baseline.append(
                f"{entry.path}: {entry.rule} baseline entry expects "
                f"{entry.count} finding(s), {entry.count - unmatched} "
                "remain — shrink or remove the entry "
                "(repro lint --update-baseline)"
            )


def update_baseline(
    result: "LintResultLike",
    previous: Optional[Baseline] = None,
    root: Optional[Path] = None,
) -> Baseline:
    """Build a fresh baseline from the current findings.

    Reasons carry over from ``previous`` for signatures that persist;
    brand-new signatures get :data:`PLACEHOLDER_REASON`, which a human
    must replace before committing (the loader accepts it, reviewers
    should not).
    """
    counts: Dict[Tuple[str, str, str], int] = {}
    for diagnostic in result.diagnostics:
        key = diagnostic_key(diagnostic, root)
        counts[key] = counts.get(key, 0) + 1
    carried = previous.by_key() if previous is not None else {}
    entries = []
    for key in sorted(counts):
        path, rule, message = key
        kept = carried.get(key)
        reason = kept.reason if kept is not None else PLACEHOLDER_REASON
        entries.append(
            BaselineEntry(
                path=path,
                rule=rule,
                message=message,
                count=counts[key],
                reason=reason,
            )
        )
    return Baseline(entries=tuple(entries))


class LintResultLike:
    """Structural interface ``apply_baseline`` needs (satisfied by
    :class:`repro.analysis.engine.LintResult`); kept tiny to avoid an
    import cycle between the engine and this module."""

    diagnostics: List[Diagnostic]
    baselined: int
    stale_baseline: List[str]
