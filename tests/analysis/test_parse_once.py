"""One ``ast.parse`` per file, and lint stays fast.

The per-file rules and the whole-program passes must share a
single AST per module.  Re-parsing is both a wall-time regression and a
correctness hazard (two trees can disagree about line numbers under
future rewrites), so the contract is asserted directly: a flow-enabled
``lint_paths`` run over the source tree calls ``ast.parse`` exactly
once per checked file.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Tuple

import pytest

from repro.analysis import LintResult, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

# Generous ceiling: the full src/ lint (per-file rules + the flow and
# shape passes) runs in well under 10 s on any supported machine; 120 s
# only catches catastrophic regressions (accidental re-parse loops,
# fixed points that stop converging), not scheduler jitter.
WALL_TIME_CEILING_SECONDS = 120.0


@pytest.fixture(scope="module")
def counted_lint() -> Tuple[LintResult, int, float]:
    """One timed lint of ``src`` with ``ast.parse`` calls counted:
    ``(result, parse calls, elapsed seconds)``."""
    calls = {"count": 0}
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls["count"] += 1
        return real_parse(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        start = time.perf_counter()
        result = lint_paths([REPO_ROOT / "src"])
        elapsed = time.perf_counter() - start
    return result, calls["count"], elapsed


def test_each_module_is_parsed_exactly_once(counted_lint):
    result, parse_calls, _ = counted_lint
    assert result.files_checked > 50
    assert parse_calls == result.files_checked, (
        f"{parse_calls} ast.parse calls for {result.files_checked} "
        "files — a rule or the flow pass is re-parsing instead of "
        "sharing the engine's tree"
    )


def test_lint_wall_time_does_not_regress(counted_lint):
    result, _, elapsed = counted_lint
    assert result.files_checked > 50
    assert elapsed < WALL_TIME_CEILING_SECONDS, (
        f"lint of src/ took {elapsed:.1f}s (ceiling "
        f"{WALL_TIME_CEILING_SECONDS:.0f}s) — meghflow or a rule has a "
        "pathological slowdown"
    )
