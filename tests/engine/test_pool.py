"""Tests for the worker pool: determinism, ordering, and fault isolation.

The parallel tests spawn real worker processes, so the simulations are
kept tiny (a few PMs, a handful of steps) and the pool small (2 workers).
"""

import json
from dataclasses import replace

import pytest

from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.events import EventJournal
from repro.engine.jobs import JobSpec, content_hash
from repro.engine.pool import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionEngine,
    require_ok,
    run_jobs,
)
from repro.errors import ConfigurationError, EngineError

BUILDER_PARAMS = {"num_pms": 4, "num_vms": 6, "num_steps": 10}


def good_spec(seed, scheduler="noop", **scheduler_params):
    return JobSpec.create(
        "planetlab",
        scheduler,
        seed=seed,
        num_steps=10,
        builder_params=BUILDER_PARAMS,
        scheduler_params=scheduler_params,
    )


def faulty_spec(constructor, seed=0, **scheduler_params):
    return JobSpec.create(
        "planetlab",
        f"tests.engine.faulty:{constructor}",
        seed=seed,
        num_steps=10,
        builder_params=BUILDER_PARAMS,
        scheduler_params=scheduler_params,
    )


class TestValidation:
    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            run_jobs([], jobs=0)
        with pytest.raises(ConfigurationError):
            run_jobs([], retries=-1)
        with pytest.raises(ConfigurationError):
            run_jobs([], timeout_seconds=0)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(jobs=0)


class TestSerialExecution:
    def test_results_in_submission_order(self):
        specs = [good_spec(seed) for seed in (3, 1, 2)]
        results = run_jobs(specs, jobs=1)
        assert [jr.spec.seed for jr in results] == [3, 1, 2]
        assert all(jr.ok for jr in results)
        assert all(jr.result.scheduler_name == "NoMigration" for jr in results)

    def test_failed_job_does_not_poison_siblings(self):
        journal = EventJournal()
        specs = [good_spec(0), faulty_spec("make_raising"), good_spec(1)]
        results = run_jobs(specs, jobs=1, journal=journal)
        assert [jr.status for jr in results] == [
            STATUS_OK, STATUS_FAILED, STATUS_OK,
        ]
        assert "injected failure" in results[1].error
        assert journal.count(ev.FAILED) == 1
        assert journal.count(ev.FINISHED) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equal_specs_run_once(self, jobs):
        # Two indices ask for one content hash (only the display tag
        # differs): it executes once and both get its result.
        journal = EventJournal()
        specs = [good_spec(0), good_spec(1), replace(good_spec(0), tag="again")]
        results = run_jobs(specs, jobs=jobs, journal=journal)
        assert journal.count(ev.FINISHED) == 2
        assert [jr.spec for jr in results] == specs
        assert results[2].result is results[0].result
        assert results[2].key == results[0].key

    def test_require_ok_raises_on_failure(self):
        results = run_jobs([faulty_spec("make_raising")], jobs=1)
        with pytest.raises(EngineError, match="1 of 1 jobs failed"):
            require_ok(results)

    def test_require_ok_unwraps_success(self):
        results = run_jobs([good_spec(0)], jobs=1)
        unwrapped = require_ok(results)
        assert unwrapped[0].scheduler_name == "NoMigration"


def deterministic_payload(result) -> str:
    """The full result as canonical JSON, minus wall-clock timings."""
    payload = result.to_dict()
    for step in payload["steps"]:
        del step["scheduler_seconds"]
    return json.dumps(payload, sort_keys=True)


class TestParallelExecution:
    def test_parallel_matches_serial_bit_for_bit(self):
        # The real schedulers run here, not just the trivial ones: Megh
        # (learner RNGs, the deferred kernel) and MMT (PABFD placement)
        # must produce byte-identical results in a spawned worker.
        specs = [
            good_spec(seed, scheduler=scheduler)
            for seed in (0, 1)
            for scheduler in ("noop", "random", "megh", "mmt")
        ]
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=2)
        assert [jr.spec for jr in parallel] == specs
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert deterministic_payload(s.result) == deterministic_payload(
                p.result
            )
        # Non-vacuous: MMT migrates on this fleet, so the comparison
        # covers real placement decisions.
        assert any(
            jr.result.total_migrations > 0
            for jr in serial
            if jr.spec.scheduler == "mmt"
        )

    def test_raising_job_fails_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = EventJournal()
        specs = [good_spec(0), faulty_spec("make_raising"), good_spec(1)]
        results = run_jobs(
            specs, jobs=2, cache=cache, journal=journal, retries=0
        )
        assert [jr.status for jr in results] == [
            STATUS_OK, STATUS_FAILED, STATUS_OK,
        ]
        assert "injected failure" in results[1].error
        # Only the successes were cached; the failure never poisons it.
        assert cache.contains(content_hash(specs[0]))
        assert not cache.contains(content_hash(specs[1]))
        assert cache.contains(content_hash(specs[2]))
        assert journal.count(ev.FAILED) == 1

    def test_timeout_kills_worker_and_records(self):
        journal = EventJournal()
        specs = [
            faulty_spec("make_hanging", sleep_seconds=60.0),
            good_spec(0),
        ]
        results = run_jobs(
            specs, jobs=2, journal=journal, timeout_seconds=3.0, retries=0
        )
        assert results[0].status == STATUS_TIMEOUT
        assert "timeout" in results[0].error
        assert results[1].status == STATUS_OK
        assert journal.count(ev.TIMEOUT) == 1

    def test_killed_worker_retried_then_crashed(self):
        journal = EventJournal()
        specs = [faulty_spec("make_crashing"), good_spec(0)]
        results = run_jobs(specs, jobs=2, journal=journal, retries=1)
        assert results[0].status == STATUS_CRASHED
        assert results[0].attempts == 2  # original + one retry
        assert "worker died" in results[0].error
        assert results[1].status == STATUS_OK
        assert journal.count(ev.RETRIED) == 1

    def test_killed_worker_no_retries(self):
        results = run_jobs([faulty_spec("make_crashing")], jobs=2, retries=0)
        assert results[0].status == STATUS_CRASHED
        assert results[0].attempts == 1


class TestExecutionEngineFacade:
    def test_plain_callables_rejected_when_parallel(self):
        engine = ExecutionEngine(jobs=2)
        with pytest.raises(ConfigurationError, match="registry-backed"):
            engine.run_matrix(
                lambda seed: None, {"x": lambda sim: None}, [0]
            )

    def test_plain_callables_rejected_inline(self):
        engine = ExecutionEngine(jobs=1)
        with pytest.raises(ConfigurationError, match="registry-backed"):
            engine.run_matrix(
                lambda seed: None, {"x": lambda sim: None}, [0]
            )

    def test_plain_callables_rejected_with_cache(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path)
        with pytest.raises(ConfigurationError, match="registry-backed"):
            engine.run_matrix(
                lambda seed: None, {"x": lambda sim: None}, [0]
            )

    def test_summary_mentions_counters(self):
        engine = ExecutionEngine(jobs=1)
        assert "executed=0" in engine.summary()
        assert "jobs=1" in engine.summary()
