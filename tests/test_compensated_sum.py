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

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The suites re-run under the patched ``sum``.
PATCHED_SUITES = (
    "tests/core/test_golden_trace.py",
    "tests/core/test_boltzmann_oracle.py",
    "tests/baselines/test_detection_batched.py",
)

#: Installs a pure-Python Neumaier ``sum`` (3.12's float rule: compensate
#: while the running total is a float, add the compensation once at the
#: end when it is finite and non-zero), then runs pytest.
_RUNNER = r"""
import builtins
import math
import sys

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
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
