"""Command-line interface: ``megh-repro <experiment>`` / ``repro lint``.

Runs any of the reproduced experiments at bench scale and prints the
paper-style table or series, e.g.::

    megh-repro table2
    megh-repro fig4 --steps 300
    megh-repro fig6
    megh-repro list

The ``lint`` subcommand runs meghlint — the per-file rules plus the
whole-program meghflow pass (see :mod:`repro.analysis` and
``docs/static_analysis.md``)::

    repro lint src/ benchmarks/
    repro lint --list-rules
    repro lint --format json src/repro/core
    repro lint --strict-suppressions src benchmarks

The ``profile`` subcommand wraps cProfile around a short simulation and
prints the hottest functions (see ``docs/performance.md``)::

    repro profile --pms 40 --vms 52 --steps 120
    repro profile --profile-sort tottime --profile-limit 40
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.harness import experiments
from repro.harness.figures import figure_series, render_figure
from repro.harness.tables import render_comparison


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megh-repro",
        description="Reproduce the experiments of the Megh paper "
        "(ICDCS 2017) at bench scale.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id: table2, table3, fig2..fig8, 'compare', "
            "'lint', 'bench', 'profile', 'serve', or 'list'"
        ),
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="override simulation steps"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the random seed"
    )
    parser.add_argument(
        "--pms", type=int, default=16, help="compare: number of PMs"
    )
    parser.add_argument(
        "--vms", type=int, default=21, help="compare: number of VMs"
    )
    parser.add_argument(
        "--workload",
        choices=("planetlab", "google"),
        default="planetlab",
        help="compare: workload style",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="compare: also write a markdown report to PATH",
    )
    parser.add_argument(
        "--claims",
        action="store_true",
        help="compare: append Section-6.3-style comparative claims",
    )
    parser.add_argument(
        "--profile-sort",
        default="cumulative",
        metavar="KEY",
        help="profile: pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    parser.add_argument(
        "--profile-limit",
        type=int,
        default=25,
        metavar="N",
        help="profile: number of stat lines to print",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run simulations on N parallel worker processes via the "
        "execution engine (compare, tables, fig2-fig6, fig8)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory; re-runs replay "
        "unchanged simulations instead of recomputing them",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write the engine's JSONL event journal to PATH",
    )
    return parser


def _check_counts(args) -> None:
    """Reject non-positive ``--steps``/``--jobs`` (``None`` steps means
    the experiment's default)."""
    if args.steps is not None and args.steps < 1:
        raise ConfigurationError(f"--steps must be >= 1, got {args.steps}")
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")


#: Experiments that run in process and so take no engine flags.
_IN_PROCESS = ("fig7", "profile")


def _engine_flags_given(args) -> bool:
    """True when ``--jobs``/``--cache-dir``/``--journal`` ask for more
    than the default inline, uncached, unjournaled engine."""
    return args.jobs != 1 or bool(args.cache_dir) or bool(args.journal)


def _make_engine(args):
    """The ExecutionEngine every experiment runs through."""
    from repro.engine import ExecutionEngine

    return ExecutionEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        journal_path=args.journal,
    )


def _run_compare(args, engine) -> str:
    from repro.engine.registry import BuilderSpec, spec_paper_factories
    from repro.harness.report import comparison_report, save_report

    seed = args.seed or 0
    steps = args.steps or 600
    builder = BuilderSpec.create(
        args.workload, num_pms=args.pms, num_vms=args.vms, num_steps=steps
    )
    factories = spec_paper_factories(include_madvm=True, seed=seed)
    results = engine.run_comparison(builder, factories, seed=seed)
    title = (
        f"Scheduler comparison — {args.workload}, "
        f"{args.pms} PMs / {args.vms} VMs / {steps} steps, seed {seed}"
    )
    if args.report:
        save_report(results, args.report, title=title)
    if args.claims:
        from repro.harness.analysis import claims_report

        return (
            comparison_report(results, title=title)
            + "\n## Findings (Section 6.3 style)\n\n"
            + claims_report(results, subject="Megh")
        )
    return comparison_report(results, title=title)


def _run_table(
    experiment: str,
    steps: Optional[int],
    seed: Optional[int],
    engine,
) -> str:
    preset = experiments.PRESETS[experiment]
    if steps is not None:
        preset = experiments.ExperimentPreset(
            **{**preset.__dict__, "num_steps": steps}
        )
    results = experiments.run_table_experiment(preset, seed=seed, engine=engine)
    title = (
        f"{experiment}: {preset.description} "
        f"[bench scale {preset.num_pms} PMs / {preset.num_vms} VMs / "
        f"{preset.num_steps} steps; paper scale {preset.paper_scale}]"
    )
    return render_comparison(results, title=title)


def _run_figure_pair(
    experiment: str,
    steps: Optional[int],
    seed: Optional[int],
    engine,
) -> str:
    preset = experiments.PRESETS[experiment]
    if steps is not None:
        preset = experiments.ExperimentPreset(
            **{**preset.__dict__, "num_steps": steps}
        )
    if experiment in ("fig2", "fig3"):
        results = experiments.run_megh_vs_thr(preset, seed=seed, engine=engine)
    else:
        results = experiments.run_megh_vs_madvm(preset, seed=seed, engine=engine)
    series = [figure_series(result) for result in results.values()]
    return render_figure(series, title=f"{experiment}: {preset.description}")


def _run_profile(args) -> str:
    """cProfile a short Megh simulation; return the hottest functions.

    Contracts are forced off so the profile reflects the production hot
    path, not the audit machinery.
    """
    import cProfile
    import io
    import pstats

    from repro.core.agent import MeghScheduler
    from repro.harness.builders import build_planetlab_simulation
    from repro.harness.runner import run_scheduler

    seed = args.seed or 0
    steps = args.steps or 60
    simulation = build_planetlab_simulation(
        num_pms=args.pms, num_vms=args.vms, num_steps=steps, seed=seed
    )
    scheduler = MeghScheduler.from_simulation(
        simulation, seed=seed, contracts=False
    )
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_scheduler(simulation, scheduler)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.profile_sort).print_stats(args.profile_limit)
    header = (
        f"profile: planetlab-synthetic {args.pms} PMs / {args.vms} VMs / "
        f"{steps} steps, seed {seed}, contracts off — "
        f"{result.total_migrations} migrations, "
        f"{scheduler.q_table_nonzeros} B non-zeros\n"
    )
    return header + buffer.getvalue()


def _run_fig6(steps: Optional[int], seed: Optional[int], engine) -> str:
    points = experiments.run_scalability_grid(
        num_steps=steps or 100, seed=seed or 0, engine=engine
    )
    lines = ["fig6: per-step execution time vs fleet size"]
    for point in points:
        lines.append(
            f"m={point.num_pms:4d} n={point.num_vms:4d} "
            f"{point.algorithm:8s} {point.mean_step_ms:9.3f} ms"
        )
    return "\n".join(lines)


def _run_fig7(steps: Optional[int], seed: Optional[int]) -> str:
    growths = experiments.run_qtable_growth(
        num_steps=steps or 300, seed=seed or 0
    )
    lines = ["fig7: Q-table non-zeros vs time"]
    for growth in growths:
        last = growth.nonzeros[-1] if growth.nonzeros else 0
        lines.append(
            f"M=N={growth.num_pms:4d}: slope={growth.slope:8.2f} nnz/step, "
            f"intercept={growth.intercept:10.1f}, final nnz={last}"
        )
    return "\n".join(lines)


def _run_fig8(steps: Optional[int], seed: Optional[int], engine) -> str:
    del seed  # repeats use their own seeds
    temp, eps = experiments.run_sensitivity(
        num_steps=steps or 300, engine=engine
    )
    lines = ["fig8(a): per-step cost vs Temp0"]
    for cell in temp:
        lines.append(
            f"Temp0={cell.parameter_dict()['initial_temperature']:6.2f}: "
            f"median={cell.median_step_cost:.4f} "
            f"p10={cell.p10_step_cost:.4f} p90={cell.p90_step_cost:.4f}"
        )
    lines.append("fig8(b): per-step cost vs epsilon")
    for cell in eps:
        lines.append(
            f"eps={cell.parameter_dict()['temperature_decay']:8.4f}: "
            f"median={cell.median_step_cost:.4f} "
            f"p10={cell.p10_step_cost:.4f} p90={cell.p90_step_cost:.4f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from repro.analysis.cli import run as run_lint

        return run_lint(arguments[1:])
    if arguments and arguments[0] == "bench":
        from repro.harness.benchgate import run as run_bench

        return run_bench(arguments[1:])
    if arguments and arguments[0] == "serve":
        from repro.service.cli import run as run_serve

        return run_serve(arguments[1:])
    args = _build_parser().parse_args(arguments)
    experiment = args.experiment.lower()
    try:
        if experiment == "list":
            for key, preset in experiments.PRESETS.items():
                print(f"{key:8s} {preset.description}")
            print("fig6     scalability grid (exec time vs fleet size)")
            print("fig7     Q-table growth")
            print("fig8     Temp0 / epsilon sensitivity")
            print(
                "compare  custom comparison "
                "(--pms/--vms/--workload/--report/--claims)"
            )
            print(
                "lint     meghlint static analysis "
                "(paths, --format, --select, --ignore, --list-rules)"
            )
            print(
                "bench    perf-regression smoke gate "
                "(--check, --band, --fresh-core/--fresh-sim)"
            )
            print(
                "profile  cProfile a short simulation "
                "(--pms/--vms/--steps/--profile-sort/--profile-limit)"
            )
            print(
                "serve    churn-driven migration service "
                "(--checkpoint-every/--resume/--trace/--events)"
            )
            return 0
    except BrokenPipeError:
        return 0  # output piped into a closed reader (e.g. `| head`)
    engine = None
    try:
        _check_counts(args)
        if experiment in _IN_PROCESS and _engine_flags_given(args):
            raise ConfigurationError(
                f"--jobs/--cache-dir/--journal do not apply to "
                f"{experiment}: it runs in process, not as engine jobs"
            )
        engine = _make_engine(args)
        if experiment == "compare":
            print(_run_compare(args, engine))
        elif experiment == "profile":
            print(_run_profile(args))
        elif experiment in ("table2", "table3"):
            print(_run_table(experiment, args.steps, args.seed, engine))
        elif experiment in ("fig2", "fig3", "fig4", "fig5"):
            print(_run_figure_pair(experiment, args.steps, args.seed, engine))
        elif experiment == "fig6":
            print(_run_fig6(args.steps, args.seed, engine))
        elif experiment == "fig7":
            print(_run_fig7(args.steps, args.seed))
        elif experiment == "fig8":
            print(_run_fig8(args.steps, args.seed, engine))
        else:
            print(f"unknown experiment {experiment!r}; try 'list'")
            return 2
    except BrokenPipeError:
        return 0  # output piped into a closed reader (e.g. `| head`)
    except KeyboardInterrupt:
        return 130
    except ReproError as error:
        # Bad configuration (env knobs, inputs): one line, not a traceback.
        print(f"megh-repro {experiment}: error: {error}", file=sys.stderr)
        return 2
    finally:
        if engine is not None:
            if _engine_flags_given(args):
                print(engine.summary(), file=sys.stderr)
            engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
