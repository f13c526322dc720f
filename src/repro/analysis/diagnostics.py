"""Diagnostic records produced by the meghlint rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Union


class Severity(enum.Enum):
    """How bad a finding is; both levels fail the lint gate."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and why it matters."""

    path: str
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str

    def format(self) -> str:
        """``path:line:col: RULE severity: message`` (clickable in IDEs)."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
        }


def sort_key(diagnostic: Diagnostic) -> tuple:
    """Stable presentation order: by file, then position, then rule."""
    return (
        diagnostic.path,
        diagnostic.line,
        diagnostic.column,
        diagnostic.rule_id,
    )
