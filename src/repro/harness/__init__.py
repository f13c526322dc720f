"""Experiment harness: fleet builders, runners, and table/figure reproduction."""

from repro.harness.builders import (
    build_google_simulation,
    build_planetlab_simulation,
    build_simulation,
    make_planetlab_fleet,
    make_uniform_fleet,
)
from repro.harness.runner import run_comparison, run_scheduler
from repro.harness.tables import comparison_table, format_table
from repro.harness.figures import FigureSeries, figure_series
from repro.harness.multiseed import (
    MetricSummary,
    SeedAggregate,
    aggregate_seed_results,
    cheapest_algorithm,
    render_aggregates,
    run_multi_seed,
)
from repro.harness.report import comparison_report, save_report
from repro.harness.analysis import ComparativeClaims, claims_report, compare
from repro.harness.sweeps import SweepCell, render_sweep, sweep_megh

__all__ = [
    "build_simulation",
    "build_planetlab_simulation",
    "build_google_simulation",
    "make_planetlab_fleet",
    "make_uniform_fleet",
    "run_scheduler",
    "run_comparison",
    "comparison_table",
    "format_table",
    "FigureSeries",
    "figure_series",
    "MetricSummary",
    "SeedAggregate",
    "aggregate_seed_results",
    "cheapest_algorithm",
    "run_multi_seed",
    "render_aggregates",
    "comparison_report",
    "save_report",
    "ComparativeClaims",
    "compare",
    "claims_report",
    "SweepCell",
    "sweep_megh",
    "render_sweep",
]
