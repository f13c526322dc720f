"""Results do not depend on how the interpreter's builtin ``sum`` rounds.

CPython 3.12 compensates float rounding in the builtin ``sum``
(Neumaier summation); 3.11 adds left to right.  Every total that can
reach a decision or a result goes through an explicit ordered
accumulation (``metrics.ordered_sum``, ``np.cumsum``), so the golden
decision traces and the detector and Boltzmann oracle tests must pass
unchanged with ``builtins.sum`` replaced by a compensated sum.  The run
happens in a subprocess, so the patch reaches every import and leaves
this process alone.
"""

from __future__ import annotations

import builtins
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The suites re-run under the patched ``sum``.
PATCHED_SUITES = (
    "tests/core/test_golden_trace.py",
    "tests/core/test_boltzmann_oracle.py",
    "tests/baselines/test_detection_batched.py",
)

def neumaier_sum(iterable, /, start=0):
    """A pure-Python Neumaier ``sum``, CPython 3.12's float rule:
    compensate while the running total is a float, add the compensation
    once at the end when it is finite and non-zero."""
    total, compensation = start, 0.0
    for value in iterable:
        if isinstance(total, (int, float)) and isinstance(
            value, (int, float)
        ) and (isinstance(total, float) or isinstance(value, float)):
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
        else:
            total = total + value
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


#: Installs :func:`neumaier_sum` as ``builtins.sum``, then runs pytest.
_RUNNER = r"""
import builtins
import sys

from tests.test_compensated_sum import neumaier_sum

_builtin_sum = builtins.sum
builtins.sum = neumaier_sum
assert sum([1e16, 1.0, -1e16]) == 1.0 != _builtin_sum([1e16, 1.0, -1e16])

import pytest

sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def test_results_hold_under_a_compensated_builtin_sum():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER, *PATCHED_SUITES],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + (
        completed.stderr[-2000:]
    )


def test_reported_statistics_hold_under_a_compensated_builtin_sum(monkeypatch):
    # The multi-seed mean and std and the report's steady-state mean
    # total with ``ordered_sum``: a compensated ``sum`` totals these
    # values to 4.0, the left-to-right loop to 3.0.
    from repro.harness.multiseed import MetricSummary
    from repro.harness.report import _steady_state

    values = (1e16, 1.0, -1e16, 3.0)
    assert neumaier_sum(values) == 4.0 != 3.0 == builtins.sum(values)
    result = SimpleNamespace(
        metrics=SimpleNamespace(per_step_cost_series=lambda: list(values))
    )

    def statistics():
        summary = MetricSummary(values)
        return summary.mean, summary.std, _steady_state(result, 1.0)

    expected = statistics()
    assert expected[0] == expected[2] == 0.75
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert statistics() == expected
