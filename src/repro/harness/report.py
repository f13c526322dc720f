"""Markdown report generation for comparison runs.

Turns a ``{name: SimulationResult}`` map into a self-contained markdown
report: the Table-2-style comparison, per-algorithm convergence and
steady-state rates, and the winner summary — the artifact a user drops
into a lab notebook or CI comment.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cloudsim.metrics import ordered_sum
from repro.cloudsim.simulation import SimulationResult


def _steady_state(result: SimulationResult, tail_fraction: float) -> float:
    costs = result.metrics.per_step_cost_series()
    tail = max(1, int(len(costs) * tail_fraction))
    return ordered_sum(costs[-tail:]) / tail


def markdown_table(rows: Sequence[Sequence[str]]) -> str:
    """Render rows (first row = header) as a GitHub-flavoured table."""
    if not rows:
        return ""
    header, *body = rows
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def comparison_report(
    results: Dict[str, SimulationResult],
    title: str = "Scheduler comparison",
    tail_fraction: float = 0.25,
) -> str:
    """Build the full markdown report for a comparison run."""
    if not results:
        return f"# {title}\n\n(no results)"
    any_result = next(iter(results.values()))
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        f"Fleet: {any_result.num_pms} PMs / {any_result.num_vms} VMs, "
        f"{len(any_result.metrics.steps)} steps of "
        f"{any_result.config.interval_seconds:.0f} s."
    )
    lines.append("")

    rows: List[List[str]] = [
        [
            "Algorithm",
            "Total cost (USD)",
            "Energy (USD)",
            "SLA (USD)",
            "#Migrations",
            "Active hosts",
            "Exec (ms)",
            "Steady cost/step",
            "Convergence step",
        ]
    ]
    for name, result in results.items():
        metrics = result.metrics
        rows.append(
            [
                name,
                f"{result.total_cost_usd:.2f}",
                f"{metrics.total_energy_cost_usd:.2f}",
                f"{metrics.total_sla_cost_usd:.2f}",
                str(result.total_migrations),
                f"{result.mean_active_hosts:.1f}",
                f"{result.mean_scheduler_ms:.3f}",
                f"{_steady_state(result, tail_fraction):.4f}",
                str(metrics.convergence_step()),
            ]
        )
    lines.append(markdown_table(rows))
    lines.append("")

    by_total = min(results.items(), key=lambda kv: kv[1].total_cost_usd)
    by_rate = min(
        results.items(), key=lambda kv: _steady_state(kv[1], tail_fraction)
    )
    by_migrations = min(
        results.items(), key=lambda kv: kv[1].total_migrations
    )
    lines.append(f"* cheapest total: **{by_total[0]}** "
                 f"({by_total[1].total_cost_usd:.2f} USD)")
    lines.append(
        f"* cheapest converged rate: **{by_rate[0]}** "
        f"({_steady_state(by_rate[1], tail_fraction):.4f} USD/step)"
    )
    lines.append(
        f"* fewest migrations: **{by_migrations[0]}** "
        f"({by_migrations[1].total_migrations})"
    )
    lines.append("")
    return "\n".join(lines)


def save_report(
    results: Dict[str, SimulationResult],
    path: str,
    title: str = "Scheduler comparison",
) -> None:
    """Write :func:`comparison_report` to a file."""
    with open(path, "w") as handle:
        handle.write(comparison_report(results, title=title))
        handle.write("\n")
