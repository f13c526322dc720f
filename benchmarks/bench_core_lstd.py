"""Microbenchmark — SparseLstd primitives at paper scale (d = N x M).

Measures the three numerical-core operations every simulation step is
built from, on a ``B`` with realistic fill-in (an 8000-update action
stream over a 256-action pool at the paper's d = 1052 x 800 = 841,600):

* ``rank_one_update`` throughput (Sherman–Morrison, Eq. 11);
* ``q_value`` cold (theta cache invalidated before every pass) vs warm
  (served from the dirty-row cache) — the ISSUE's >= 5x criterion;
* batched ``q_values`` throughput and a full ``theta()`` scan.

The update loop is also broken down by phase via the deferred kernel's
profiling counters (``SparseMatrix.kernel_stats``): staging (enqueue)
vs grouped replay (flush) vs the rest of the learning step.  Run with
``REPRO_KERNEL=off`` to compare the C kernel with the eager path; the
recorded ``kernel`` field says which one produced the committed numbers.

Results merge into the ``"lstd"`` section of ``BENCH_core.json``::

    PYTHONPATH=src python benchmarks/bench_core_lstd.py          # paper scale
    PYTHONPATH=src python benchmarks/bench_core_lstd.py --fast   # CI smoke

This file is a standalone script, not a pytest-benchmark suite: it
defines no test functions, so ``pytest benchmarks/`` collects nothing
from it.  The CI ``bench-smoke`` job runs it in ``--fast`` mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

try:
    from benchmarks.core_bench_util import DEFAULT_OUTPUT, merge_section
    from benchmarks.core_bench_util import PAPER_NUM_PMS, PAPER_NUM_VMS
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from core_bench_util import DEFAULT_OUTPUT, merge_section
    from core_bench_util import PAPER_NUM_PMS, PAPER_NUM_VMS

from repro.core.lstd import SparseLstd


def _draw_stream(
    rng: np.random.Generator, pool: np.ndarray, count: int
) -> List[Tuple[int, int, float]]:
    first = rng.integers(0, pool.shape[0], size=count)
    second = rng.integers(0, pool.shape[0], size=count)
    costs = rng.normal(0.0, 1.0, size=count)
    return [
        (int(pool[i]), int(pool[j]), float(c))
        for i, j, c in zip(first, second, costs)
    ]


def measure_lstd(
    dimension: int,
    pool_size: int,
    fill_updates: int,
    timed_updates: int,
    eval_passes: int,
    seed: int = 7,
) -> Dict:
    """Fill a ``SparseLstd``, then time its hot-path primitives."""
    rng = np.random.default_rng(seed)
    pool = np.sort(rng.choice(dimension, size=pool_size, replace=False))
    lstd = SparseLstd(dimension=dimension, gamma=0.5)

    for a, a_next, cost in _draw_stream(rng, pool, fill_updates):
        lstd.update(a, a_next, cost)

    timed_stream = _draw_stream(rng, pool, timed_updates)
    stats_before = lstd.B.kernel_stats()
    started = time.perf_counter()
    for a, a_next, cost in timed_stream:
        lstd.update(a, a_next, cost)
    update_seconds = time.perf_counter() - started
    stats_after = lstd.B.kernel_stats()

    # Per-phase breakdown of the timed update loop: staging (enqueue)
    # vs replay (flush) vs everything else (row combine, denominator,
    # theta invalidation).  Counter deltas cover exactly the timed
    # window; all zeros when the deferred kernel is off.
    enqueue_seconds = float(
        stats_after["enqueue_seconds"] - stats_before["enqueue_seconds"]
    )
    flush_seconds = float(
        stats_after["flush_seconds"] - stats_before["flush_seconds"]
    )
    phase_breakdown = {
        "kernel": stats_after["kernel"],
        "window": stats_after["window"],
        "enqueue_seconds": enqueue_seconds,
        "flush_seconds": flush_seconds,
        "other_seconds": update_seconds - enqueue_seconds - flush_seconds,
        "enqueued": int(stats_after["enqueued"] - stats_before["enqueued"]),
        "row_flushes": int(
            stats_after["row_flushes"] - stats_before["row_flushes"]
        ),
        "full_flushes": int(
            stats_after["full_flushes"] - stats_before["full_flushes"]
        ),
        "updates_applied_at_replay": int(
            stats_after["applied"] - stats_before["applied"]
        ),
        "updates_skipped_at_replay": int(
            stats_after["skipped"] - stats_before["skipped"]
        ),
    }

    indices = pool.tolist()

    # Cold: every pass starts with the theta cache fully invalidated, so
    # each q_value is one sparse-row dot product.
    started = time.perf_counter()
    for _ in range(eval_passes):
        lstd.invalidate_theta_cache()
        for index in indices:
            lstd.q_value(index)
    cold_seconds = time.perf_counter() - started

    # Warm: the cache stays valid across passes; each q_value is one
    # array read (this is what repeated candidate scoring looks like).
    lstd.invalidate_theta_cache()
    for index in indices:
        lstd.q_value(index)
    started = time.perf_counter()
    for _ in range(eval_passes):
        for index in indices:
            lstd.q_value(index)
    warm_seconds = time.perf_counter() - started

    # Batched warm path: one q_values() call per pass.
    started = time.perf_counter()
    for _ in range(eval_passes):
        lstd.q_values(pool)
    batched_seconds = time.perf_counter() - started

    started = time.perf_counter()
    theta = lstd.theta()
    theta_seconds = time.perf_counter() - started

    evaluations = eval_passes * len(indices)
    row_nnz = [lstd.B.row_view(int(index))[0].shape[0] for index in indices]
    return {
        "dimension": dimension,
        "pool_size": pool_size,
        "fill_updates": fill_updates,
        "timed_updates": timed_updates,
        "eval_passes": eval_passes,
        "seed": seed,
        "rank_one_update_ops_per_s": timed_updates / update_seconds,
        "q_value_cold_ops_per_s": evaluations / cold_seconds,
        "q_value_warm_ops_per_s": evaluations / warm_seconds,
        "q_values_batched_ops_per_s": evaluations / batched_seconds,
        "warm_over_cold_speedup": cold_seconds / warm_seconds,
        "theta_seconds": theta_seconds,
        "theta_nonzero_entries": int(np.count_nonzero(theta)),
        "q_table_nonzeros": lstd.q_table_nonzeros,
        "mean_pool_row_nnz": float(np.mean(row_nnz)),
        "kernel": lstd.B.kernel_name,
        "phase_breakdown": phase_breakdown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="tiny sizes for the CI smoke job (seconds, not minutes)",
    )
    parser.add_argument("--out", default=DEFAULT_OUTPUT, metavar="PATH")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    os.environ["REPRO_CONTRACTS"] = "0"  # clean timings

    if args.fast:
        payload = measure_lstd(
            dimension=2_000,
            pool_size=32,
            fill_updates=300,
            timed_updates=200,
            eval_passes=5,
            seed=args.seed,
        )
    else:
        payload = measure_lstd(
            dimension=PAPER_NUM_VMS * PAPER_NUM_PMS,
            pool_size=256,
            fill_updates=8_000,
            timed_updates=2_000,
            eval_passes=40,
            seed=args.seed,
        )
    merge_section(args.out, "lstd", payload)
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    print(f"\nmerged into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
