"""Service-loop throughput: churn events, retirements, steps per second.

Runs the churn-driven :class:`~repro.service.loop.ServiceSimulation`
with a Megh agent (contracts off — this measures the production path)
and records how fast the event-driven step pipeline drains lifecycle
events and retires learner slots::

    PYTHONPATH=src python benchmarks/bench_service_churn.py
    PYTHONPATH=src python benchmarks/bench_service_churn.py --fast

Each run is repeated :data:`REPEATS` times back to back: the recorded
throughputs are the medians, with the min and max beside them, because
one 0.6 s run can read 1.6x slower than the next on the same host.
Results merge into ``BENCH_service.json``: section ``service_churn``,
or ``service_churn_fast`` for ``--fast``.  The committed record holds
both, so ``repro bench --check`` compares a fresh ``--fast`` run with a
``--fast`` reference.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

from core_bench_util import DEFAULT_OUTPUT, merge_section  # noqa: E402

SERVICE_OUTPUT = os.path.join(
    os.path.dirname(DEFAULT_OUTPUT), "BENCH_service.json"
)

#: Back-to-back runs per measurement.
REPEATS = 3

#: Throughputs recorded as median, min and max over the repeats.
_RATES = ("steps_per_s", "events_per_s", "retirements_per_s")

#: Simulated outcome every repeat of one seed must reproduce.
_OUTCOME = (
    "churn_events_applied",
    "retirements_applied",
    "total_migrations",
    "q_table_nonzeros",
)


def run_service(
    num_pms: int,
    capacity: int,
    num_steps: int,
    arrival_rate: float,
    mean_lifetime_steps: float,
    seed: int,
) -> dict:
    from repro.core.agent import MeghScheduler
    from repro.service.builders import build_churn_service

    service = build_churn_service(
        seed=seed,
        num_pms=num_pms,
        capacity=capacity,
        num_steps=num_steps,
        arrival_rate=arrival_rate,
        mean_lifetime_steps=mean_lifetime_steps,
        initial_vms=max(2, capacity // 2),
    )
    agent = MeghScheduler.from_simulation(
        service, seed=seed, contracts=False
    )
    start = time.perf_counter()
    result = service.run(agent, validate_every_step=False)
    duration = time.perf_counter() - start
    events = service.churn_events_applied
    retirements = agent.lstd.retirements_applied
    return {
        "num_pms": num_pms,
        "capacity": capacity,
        "num_steps": num_steps,
        "arrival_rate": arrival_rate,
        "mean_lifetime_steps": mean_lifetime_steps,
        "seed": seed,
        "duration_s": duration,
        "steps_per_s": num_steps / duration,
        "churn_events_applied": events,
        "events_per_s": events / duration,
        "retirements_applied": retirements,
        "retirements_per_s": retirements / duration,
        "total_migrations": result.total_migrations,
        "q_table_nonzeros": agent.q_table_nonzeros,
    }


def measure(seed: int, **params) -> dict:
    """:func:`run_service` :data:`REPEATS` times: medians, min and max.

    The simulated outcome must not change between repeats; a run that
    does is a determinism bug, not noise, and raises.
    """
    runs = [run_service(seed=seed, **params) for _ in range(REPEATS)]
    first = runs[0]
    for run in runs[1:]:
        if any(run[key] != first[key] for key in _OUTCOME):
            raise RuntimeError("repeats of one seed gave different results")
    section = dict(first)
    section["repeats"] = REPEATS
    section["duration_s"] = statistics.median(
        run["duration_s"] for run in runs
    )
    for key in _RATES:
        values = [run[key] for run in runs]
        section[key] = statistics.median(values)
        section[key + "_min"] = min(values)
        section[key + "_max"] = max(values)
    return section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny run for the CI smoke gate",
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=SERVICE_OUTPUT)
    args = parser.parse_args()
    if args.fast:
        params = dict(
            num_pms=8,
            capacity=12,
            num_steps=args.steps or 120,
            arrival_rate=0.8,
            mean_lifetime_steps=16.0,
        )
    else:
        params = dict(
            num_pms=24,
            capacity=36,
            num_steps=args.steps or 600,
            arrival_rate=1.5,
            mean_lifetime_steps=32.0,
        )
    section = measure(args.seed, **params)
    section["fast"] = args.fast
    name = "service_churn_fast" if args.fast else "service_churn"
    merge_section(args.out, name, section)
    print(
        f"{name}: {section['steps_per_s']:.1f} steps/s "
        f"({section['steps_per_s_min']:.1f}-"
        f"{section['steps_per_s_max']:.1f}, median of "
        f"{section['repeats']}), "
        f"{section['events_per_s']:.1f} events/s, "
        f"{section['retirements_per_s']:.1f} retirements/s "
        f"({section['num_pms']} PMs / {section['capacity']} slots / "
        f"{section['num_steps']} steps)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
