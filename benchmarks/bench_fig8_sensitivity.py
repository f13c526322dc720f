"""Figure 8 — sensitivity of per-step cost to Temp0 and epsilon.

Paper: the median per-step cost falls as Temp0 rises towards ~3 (more
exploration escapes local minima) and rises again beyond it (too much
exploration wastes migrations) — a U-shape with its minimum near
Temp0 = 3.  The epsilon response is "sporadic": no single tipping point,
with a good region near 1e-3.  The bench prints both box-plot summaries
and asserts the weak-form shape: mid-range Temp0 is no worse than the
extremes, and the cost spread across epsilon values stays bounded.
"""

from benchmarks.conftest import run_once
from repro.harness.experiments import run_sensitivity

TEMPERATURES = (0.5, 1.0, 3.0, 6.0, 10.0)
EPSILONS = (0.001, 0.01, 0.1, 1.0)


def test_fig8a_temperature_sensitivity(benchmark, emit, engine):
    cells = run_once(
        benchmark,
        lambda: run_sensitivity(
            temperatures=TEMPERATURES, epsilons=(), num_steps=300,
            engine=engine,
        )[0],
    )
    lines = ["Figure 8(a) (bench scale): per-step cost vs Temp0"]
    by_value = {}
    for cell in cells:
        value = cell.parameter_dict()["initial_temperature"]
        by_value[value] = cell.median_step_cost
        lines.append(
            f"Temp0={value:5.1f}: median={cell.median_step_cost:.4f} "
            f"[p10={cell.p10_step_cost:.4f}, p90={cell.p90_step_cost:.4f}]"
        )
    emit("\n".join(lines))

    # Weak U-shape: the paper's chosen Temp0 = 3 must not be worse than
    # both extremes of the sweep.
    assert by_value[3.0] <= max(by_value[0.5], by_value[10.0])
    for cell in cells:
        assert (
            cell.p10_step_cost <= cell.median_step_cost <= cell.p90_step_cost
        )


def test_fig8b_epsilon_sensitivity(benchmark, emit, engine):
    cells = run_once(
        benchmark,
        lambda: run_sensitivity(
            temperatures=(), epsilons=EPSILONS, num_steps=300, engine=engine
        )[1],
    )
    lines = ["Figure 8(b) (bench scale): per-step cost vs epsilon"]
    for cell in cells:
        lines.append(
            f"eps={cell.parameter_dict()['temperature_decay']:7.3f}: "
            f"median={cell.median_step_cost:.4f} "
            f"[p10={cell.p10_step_cost:.4f}, p90={cell.p90_step_cost:.4f}]"
        )
    emit("\n".join(lines))

    # "Sporadic" response: all medians the same order of magnitude —
    # epsilon tunes convergence speed, it cannot sink the system.
    medians = [cell.median_step_cost for cell in cells]
    assert max(medians) <= 5.0 * min(medians)
    for cell in cells:
        assert cell.median_step_cost > 0.0
