"""End-to-end: run_multi_seed through the engine vs an in-process loop.

Routing the seed × scheduler matrix through the execution engine
produces aggregates bit-identical, for every simulated metric, to a
reference that runs :func:`run_comparison` on a freshly built simulation
per seed, and a warm cache replays the whole matrix without executing a
single simulation.
"""

import pytest

from repro.engine import events as ev
from repro.engine.pool import ExecutionEngine
from repro.engine.registry import BuilderSpec, SchedulerSpec
from repro.harness.multiseed import aggregate_seed_results, run_multi_seed
from repro.harness.runner import run_comparison

SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def builder():
    return BuilderSpec.create(
        "planetlab", num_pms=4, num_vms=6, num_steps=15
    )


@pytest.fixture(scope="module")
def factories():
    return {
        "NoMig": SchedulerSpec.create("noop"),
        "Random": SchedulerSpec.create(
            "random", migrations_per_step=1, seed=0
        ),
    }


def assert_aggregates_identical(legacy, engine_aggregates):
    assert list(legacy) == list(engine_aggregates)
    for name in legacy:
        a, b = legacy[name], engine_aggregates[name]
        assert a.total_cost_usd.values == b.total_cost_usd.values
        assert a.total_migrations.values == b.total_migrations.values
        assert a.mean_active_hosts.values == b.mean_active_hosts.values
        assert a.wins == b.wins


class TestEngineEquivalence:
    def test_engine_matches_legacy_loop(self, builder, factories):
        legacy = aggregate_seed_results(
            [run_comparison(builder(seed), factories) for seed in SEEDS]
        )
        engine = ExecutionEngine(jobs=1)
        via_engine = run_multi_seed(
            builder, factories, seeds=SEEDS, engine=engine
        )
        assert_aggregates_identical(legacy, via_engine)
        assert engine.journal.count(ev.FINISHED) == len(SEEDS) * len(factories)

    def test_warm_cache_executes_nothing(self, builder, factories, tmp_path):
        cold = ExecutionEngine(jobs=1, cache_dir=tmp_path)
        first = run_multi_seed(builder, factories, seeds=SEEDS, engine=cold)
        expected_jobs = len(SEEDS) * len(factories)
        assert cold.cache.stats().stores == expected_jobs

        warm = ExecutionEngine(jobs=1, cache_dir=tmp_path)
        second = run_multi_seed(builder, factories, seeds=SEEDS, engine=warm)
        # Zero simulations executed: every job replayed from the cache.
        assert warm.journal.count(ev.STARTED) == 0
        assert warm.journal.count(ev.FINISHED) == 0
        assert warm.journal.count(ev.CACHE_HIT) == expected_jobs
        assert warm.cache.stats().hits == expected_jobs
        assert warm.cache.stats().misses == 0
        assert_aggregates_identical(first, second)
        # Cached replays are bit-exact down to the measured timings.
        for name in first:
            assert (
                first[name].mean_scheduler_ms.values
                == second[name].mean_scheduler_ms.values
            )

    def test_journal_file_written(self, builder, factories, tmp_path):
        path = tmp_path / "journal.jsonl"
        engine = ExecutionEngine(jobs=1, journal_path=path)
        run_multi_seed(builder, factories, seeds=[0], engine=engine)
        engine.close()
        from repro.engine.events import read_journal

        events = read_journal(path)
        assert [e.kind for e in events[:2]] == [ev.QUEUED, ev.QUEUED]
        assert events[-1].kind == ev.FINISHED
