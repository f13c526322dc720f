#!/usr/bin/env python3
"""Compare every scheduler on one identical workload replay.

Runs the paper's full line-up — the five MMT variants, Megh, MadVM — plus
the no-migration and random calibration baselines, all against the same
initial placement and trace, and prints the Table-2-style comparison.

Run:
    python examples/compare_schedulers.py [--steps N] [--seed S]
"""

import argparse

from repro.engine import (
    BuilderSpec,
    ExecutionEngine,
    SchedulerSpec,
    spec_paper_factories,
)
from repro.harness.tables import render_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pms", type=int, default=16)
    parser.add_argument("--vms", type=int, default=21)
    args = parser.parse_args()

    builder = BuilderSpec.create(
        "planetlab", num_pms=args.pms, num_vms=args.vms, num_steps=args.steps
    )
    factories = spec_paper_factories(include_madvm=True, seed=args.seed)
    factories["NoMigration"] = SchedulerSpec.create("noop")
    factories["Random"] = SchedulerSpec.create(
        "random", migrations_per_step=1, seed=args.seed
    )

    results = ExecutionEngine().run_comparison(
        builder, factories, seed=args.seed
    )
    print(
        render_comparison(
            results,
            title=(
                f"All schedulers on PlanetLab-style trace "
                f"({args.pms} PMs / {args.vms} VMs / {args.steps} steps, "
                f"seed {args.seed})"
            ),
        )
    )

    def converged_rate(result):
        costs = result.metrics.per_step_cost_series()
        quarter = max(1, len(costs) // 4)
        return sum(costs[-quarter:]) / quarter

    print("\nconverged per-step cost (last quarter, USD):")
    for name, result in sorted(results.items(), key=lambda kv: converged_rate(kv[1])):
        print(f"  {name:12s} {converged_rate(result):.4f}")
    best = min(results.items(), key=lambda kv: converged_rate(kv[1]))
    print(f"best long-run operator: {best[0]}")


if __name__ == "__main__":
    main()
