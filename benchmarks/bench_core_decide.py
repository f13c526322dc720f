"""Microbenchmark — full ``MeghScheduler.decide()`` at paper scale.

Times every ``decide()`` call of a synthetic-PlanetLab run at the
paper's fleet size (N=1052 VMs, M=800 PMs, d=841,600) with contracts
off, capturing the end-to-end per-step latency the Figure-6 scalability
claim is about — candidate generation, the Algorithm-1 learning step,
batched Q scoring, and Boltzmann selection together.  A per-phase
breakdown splits the total into ``candidate_seconds`` (the array-native
:class:`~repro.core.candidates.CandidateIndex` plan), ``q_seconds``
(batched ``SparseLstd.q_values`` — including any deferred rank-k
flushes the reads trigger), ``apply_seconds`` (the Sherman–Morrison
``SparseLstd.update`` enqueues) and ``select_seconds`` (the segmented
Boltzmann draw, ``BoltzmannPolicy.select_rows``).

``--check-oracle`` additionally reruns the same seeded simulation twice
— once through the vectorized candidate pipeline, once through the
scalar oracle generator (``tests/oracles/megh_candidates.py``, imported
from the checkout) — and fails unless the decision traces are
element-for-element identical (``oracle_match`` in the payload).
``planner`` records which candidate backend ran: ``c`` (the compiled
plan) or ``off`` (the eager NumPy path, under ``REPRO_KERNEL=off``).

Results merge into the ``"decide"`` section of ``BENCH_core.json``::

    PYTHONPATH=src python benchmarks/bench_core_decide.py          # paper scale
    PYTHONPATH=src python benchmarks/bench_core_decide.py --fast   # CI smoke

Standalone script (no pytest test functions); the CI ``bench-smoke``
job runs it in ``--fast --check-oracle`` mode under both planners.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

try:
    from benchmarks.core_bench_util import DEFAULT_OUTPUT, merge_section
    from benchmarks.core_bench_util import PAPER_NUM_PMS, PAPER_NUM_VMS
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from core_bench_util import DEFAULT_OUTPUT, merge_section
    from core_bench_util import PAPER_NUM_PMS, PAPER_NUM_VMS

#: The checkout root, where ``tests.oracles`` lives.
_CHECKOUT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _TimedDecide:
    """Scheduler proxy that samples the latency of every decide()."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.samples: List[float] = []

    def decide(self, observation):
        started = time.perf_counter()
        migrations = self._inner.decide(observation)
        self.samples.append(time.perf_counter() - started)
        return migrations

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _PhaseTimers:
    """Cumulative wall-clock per decide() phase."""

    def __init__(self) -> None:
        self.candidate = 0.0
        self.q = 0.0
        self.apply = 0.0
        self.select = 0.0


def _instrument_phases(scheduler, timers: _PhaseTimers) -> None:
    """Shadow the phase entry points with timing wrappers.

    Instance-attribute shadows, so only this scheduler is touched:
    candidate = the CandidateIndex plan, q = batched Q reads (which also
    pay any pending rank-k flush), apply = Sherman–Morrison update
    enqueues, select = the one sampling pass over the plan.
    """
    plan = scheduler.candidate_index.plan
    q_values = scheduler.lstd.q_values
    update = scheduler.lstd.update
    select_rows = scheduler.policy.select_rows

    def timed(accumulate, function):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                accumulate(time.perf_counter() - started)
        return wrapper

    def to_candidate(dt):
        timers.candidate += dt

    def to_q(dt):
        timers.q += dt

    def to_apply(dt):
        timers.apply += dt

    def to_select(dt):
        timers.select += dt

    scheduler.candidate_index.plan = timed(to_candidate, plan)
    scheduler.lstd.q_values = timed(to_q, q_values)
    scheduler.lstd.update = timed(to_apply, update)
    scheduler.policy.select_rows = timed(to_select, select_rows)


def measure_decide(
    num_pms: int, num_vms: int, num_steps: int, seed: int = 0
) -> Dict:
    """Run a fixed-seed simulation, timing each scheduler decision."""
    from repro.core.agent import MeghScheduler
    from repro.harness.builders import build_planetlab_simulation
    from repro.harness.runner import run_scheduler

    simulation = build_planetlab_simulation(
        num_pms=num_pms, num_vms=num_vms, num_steps=num_steps, seed=seed
    )
    scheduler = MeghScheduler.from_simulation(
        simulation, seed=seed, contracts=False
    )
    timers = _PhaseTimers()
    _instrument_phases(scheduler, timers)
    timed = _TimedDecide(scheduler)
    result = run_scheduler(simulation, timed)
    samples = np.asarray(timed.samples)
    return {
        "num_pms": num_pms,
        "num_vms": num_vms,
        "dimension": num_pms * num_vms,
        "num_steps": int(samples.shape[0]),
        "seed": seed,
        "decide_ms_mean": float(samples.mean() * 1e3),
        "decide_ms_p50": float(np.median(samples) * 1e3),
        "decide_ms_max": float(samples.max() * 1e3),
        "decide_ops_per_s": float(samples.shape[0] / samples.sum()),
        # Which CandidateIndex backend planned: the compiled pass ("c")
        # or the eager NumPy path ("off"), as REPRO_KERNEL selects.
        "planner": "off" if scheduler.candidate_index.kernel is None else "c",
        "candidate_seconds": timers.candidate,
        "q_seconds": timers.q,
        "apply_seconds": timers.apply,
        "select_seconds": timers.select,
        "total_migrations": result.total_migrations,
        "q_table_nonzeros": scheduler.q_table_nonzeros,
        "theta_cache_hits": scheduler.lstd.theta_cache_hits,
        "theta_cache_misses": scheduler.lstd.theta_cache_misses,
    }


def check_oracle(
    num_pms: int, num_vms: int, num_steps: int, seed: int = 0
) -> bool:
    """Vectorized vs scalar candidate generation: traces must match."""
    from repro.core.agent import MeghScheduler
    from repro.core.trace import DecisionTrace
    from repro.harness.builders import build_planetlab_simulation
    from repro.harness.runner import run_scheduler

    if _CHECKOUT_ROOT not in sys.path:
        sys.path.insert(0, _CHECKOUT_ROOT)
    from tests.oracles.megh_candidates import scalar_plan

    traces = []
    totals = []
    for scalar in (False, True):
        simulation = build_planetlab_simulation(
            num_pms=num_pms, num_vms=num_vms, num_steps=num_steps,
            seed=seed,
        )
        scheduler = MeghScheduler.from_simulation(
            simulation, seed=seed, contracts=False
        )
        if scalar:
            scheduler._plan = functools.partial(scalar_plan, scheduler)
        scheduler.trace = DecisionTrace()
        result = run_scheduler(simulation, scheduler)
        traces.append(scheduler.trace.records)
        totals.append(
            (result.total_migrations, scheduler.q_table_nonzeros)
        )
    return traces[0] == traces[1] and totals[0] == totals[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny fleet for the CI smoke job (seconds, not minutes)",
    )
    parser.add_argument("--out", default=DEFAULT_OUTPUT, metavar="PATH")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="override the number of simulated steps",
    )
    parser.add_argument(
        "--check-oracle",
        action="store_true",
        help=(
            "also rerun the simulation through the scalar candidate "
            "oracle and fail unless the decision traces are identical"
        ),
    )
    args = parser.parse_args(argv)
    os.environ["REPRO_CONTRACTS"] = "0"  # clean timings

    if args.fast:
        shape = dict(num_pms=10, num_vms=14, num_steps=args.steps or 25)
    else:
        shape = dict(
            num_pms=PAPER_NUM_PMS,
            num_vms=PAPER_NUM_VMS,
            num_steps=args.steps or 12,
        )
    payload = measure_decide(seed=args.seed, **shape)
    if args.check_oracle:
        payload["oracle_match"] = check_oracle(seed=args.seed, **shape)
    merge_section(args.out, "decide", payload)
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    print(f"\nmerged into {args.out}")
    if args.check_oracle and not payload["oracle_match"]:
        print(
            "bench_core_decide: ORACLE MISMATCH — vectorized candidate "
            "plan diverged from the scalar generator",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
