"""Ablation — Megh's destination headroom (DESIGN.md decision 3).

Consolidation proposals fill destinations only to
``destination_headroom x beta`` of capacity.  Too little headroom packs
hosts onto the overload edge (demand noise tips them over and the SLA
bill explodes); too much forfeits consolidation's energy savings.  The
landscape is noisy per seed, so the sweep aggregates over three seeds
and asserts the shipped default (0.60) stays within 1.5x of the best
*mean* total cost.
"""

from benchmarks.conftest import run_once
from repro.engine.registry import BuilderSpec, SchedulerSpec
from repro.harness.multiseed import run_multi_seed

HEADROOMS = (0.4, 0.6, 0.85, 1.0)
SEEDS = (0, 1, 2)
DEFAULT = 0.4


def test_ablation_destination_headroom(benchmark, emit, engine):
    def experiment():
        factories = {
            f"h={headroom:.2f}": SchedulerSpec.create(
                "megh", seed=0, config={"destination_headroom": headroom}
            )
            for headroom in HEADROOMS
        }
        return run_multi_seed(
            BuilderSpec.create(
                "planetlab", num_pms=16, num_vms=21, num_steps=600
            ),
            factories,
            seeds=SEEDS,
            engine=engine,
        )

    aggregates = run_once(benchmark, experiment)
    lines = [
        "ablation: destination headroom "
        f"(600 steps, 16 PMs/21 VMs, {len(SEEDS)} seeds)"
    ]
    for name, aggregate in aggregates.items():
        lines.append(
            f"{name}: total={aggregate.total_cost_usd.mean:8.2f} "
            f"± {aggregate.total_cost_usd.std:6.2f} USD  "
            f"hosts={aggregate.mean_active_hosts.mean:4.1f}  "
            f"migrations={aggregate.total_migrations.mean:5.0f}  "
            f"wins={aggregate.wins}"
        )
    emit("\n".join(lines))

    means = {
        name: aggregate.total_cost_usd.mean
        for name, aggregate in aggregates.items()
    }
    best = min(means.values())
    assert means[f"h={DEFAULT:.2f}"] <= 1.5 * best, (
        "the shipped headroom default must stay near the sweep optimum "
        f"(means: {means})"
    )
