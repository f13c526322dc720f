"""Integration tests for the churn-driven service loop."""

import json
import math

import pytest

from repro.cloudsim.events import EventKind, EventLog
from repro.cloudsim.reference import ReferenceDatacenter
from repro.config import SimulationConfig
from repro.core.agent import MeghScheduler
from repro.engine.registry import (
    BuilderSpec,
    SchedulerSpec,
    execute_spec,
    job_spec,
)
from repro.errors import ConfigurationError
from repro.service.builders import build_churn_service
from repro.service.churn import ChurnConfig, ChurnModel
from repro.service.loop import ServiceSimulation

from tests.conftest import make_pm, make_vm


def _result_key(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRun:
    def test_smoke_run_completes(self):
        service = build_churn_service(seed=0, num_steps=30)
        agent = MeghScheduler.from_simulation(service, seed=0)
        result = service.run(agent)
        assert len(result.metrics.steps) == 30
        assert service.churn_events_applied == len(service.churn.events)
        assert agent.dynamic_slots
        assert agent.lstd.operator_tracking_enabled

    def test_results_are_wall_clock_free(self):
        service = build_churn_service(seed=0, num_steps=15)
        agent = MeghScheduler.from_simulation(service, seed=0)
        result = service.run(agent)
        assert all(
            step.scheduler_seconds == 0.0 for step in result.metrics.steps
        )

    def test_identical_runs_are_byte_identical(self):
        keys = []
        for _ in range(2):
            service = build_churn_service(seed=5, num_steps=40)
            agent = MeghScheduler.from_simulation(service, seed=5)
            keys.append(_result_key(service.run(agent)))
        assert keys[0] == keys[1]

    def test_runs_via_engine_registry(self):
        spec = job_spec(
            BuilderSpec.create("churn", num_steps=20, num_pms=6, capacity=8),
            SchedulerSpec.create("megh", seed=2),
            seed=2,
        )
        result = execute_spec(spec)
        assert len(result.metrics.steps) == 20

    def test_departures_free_slots_for_reuse(self):
        service = build_churn_service(
            seed=1,
            num_steps=60,
            capacity=6,
            arrival_rate=1.0,
            mean_lifetime_steps=6.0,
            initial_vms=4,
        )
        agent = MeghScheduler.from_simulation(service, seed=1)
        service.run(agent)
        creates = sum(
            1 for e in service.churn.events if e.kind == "create"
        )
        # More arrivals than slots can only complete via slot reuse.
        assert creates > service.capacity
        assert agent.lstd.retirements_applied > 0
        assert service.num_live_vms <= service.capacity

    def test_pool_full_rejection_is_logged(self):
        service = build_churn_service(
            seed=0, num_steps=5, capacity=2, initial_vms=5, arrival_rate=0.0
        )
        agent = MeghScheduler.from_simulation(service, seed=0)
        log = EventLog()
        service.run(agent, event_log=log)
        rejections = [
            e
            for e in log
            if e.kind == EventKind.CUSTOM
            and e.payload.get("reason") == "vm_rejected_pool_full"
        ]
        assert len(rejections) == 3
        creates = [e for e in log if e.kind == EventKind.VM_CREATED]
        assert len(creates) == 2


class _RecordingScheduler:
    """Delegates to a learner and records what each decision saw."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen = []  # (step, last_step_cost_usd, monitor)

    def decide(self, observation):
        self.seen.append(
            (
                observation.step,
                observation.last_step_cost_usd,
                observation.monitor,
            )
        )
        return self.inner.decide(observation)

    def retire_vm(self, slot):
        self.inner.retire_vm(slot)


class TestCadences:
    def test_decide_and_scan_cadences(self):
        steps, decide_every, scan_every = 40, 3, 2
        service = build_churn_service(
            seed=4,
            num_steps=steps,
            decide_every=decide_every,
            scan_every=scan_every,
        )
        recorder = _RecordingScheduler(
            MeghScheduler.from_simulation(service, seed=4)
        )
        result = service.run(recorder)
        decided = [step for step, _, _ in recorder.seen]
        assert decided == list(range(0, steps, decide_every))

        # Each decision is fed the in-order float sum of the step totals
        # since the previous decision (0.0 at the first one).
        totals = [step.total_cost_usd for step in result.metrics.steps]
        for step, cost, _ in recorder.seen:
            expected = 0.0
            for total in totals[max(0, step - decide_every) : step]:
                expected += total
            assert cost == expected

        started_on_decisions = 0
        for metrics in result.metrics.steps:
            if metrics.step % decide_every:
                assert metrics.num_migrations_started == 0
                assert metrics.num_migrations_rejected == 0
            else:
                started_on_decisions += metrics.num_migrations_started
        assert started_on_decisions > 0

        monitor = recorder.seen[-1][2]
        assert monitor.steps_observed == math.ceil(steps / scan_every)


class TestTraceReplay:
    def test_saved_event_log_replays_byte_identically(self, tmp_path):
        service = build_churn_service(seed=6, num_steps=40)
        agent = MeghScheduler.from_simulation(service, seed=6)
        log = EventLog()
        original = service.run(agent, event_log=log)
        path = str(tmp_path / "lifecycle.jsonl")
        log.save_jsonl(path)

        replay = build_churn_service(
            seed=6, num_steps=40, trace_path=path
        )
        replay_agent = MeghScheduler.from_simulation(replay, seed=6)
        replayed = replay.run(replay_agent)
        assert _result_key(original) == _result_key(replayed)


class TestValidation:
    def _slots(self, n):
        return [make_vm(j) for j in range(n)]

    def test_reference_backend_rejected(self):
        datacenter = ReferenceDatacenter(
            [make_pm(i) for i in range(2)], self._slots(2)
        )
        churn = ChurnModel(ChurnConfig(), num_steps=10, seed=0)
        with pytest.raises(ConfigurationError):
            ServiceSimulation(
                datacenter, churn, SimulationConfig(num_steps=10)
            )

    def test_bad_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            build_churn_service(num_steps=10, decide_every=0)

    def test_short_churn_horizon_rejected(self):
        service = build_churn_service(seed=0, num_steps=10)
        agent = MeghScheduler.from_simulation(service, seed=0)
        with pytest.raises(ConfigurationError):
            service.run(agent, num_steps=11)

    def test_checkpoint_cadence_requires_path(self):
        service = build_churn_service(seed=0, num_steps=10)
        agent = MeghScheduler.from_simulation(service, seed=0)
        with pytest.raises(ConfigurationError):
            service.run(agent, checkpoint_every=5)

    def test_checkpoint_requires_learner(self, tmp_path):
        from repro.baselines.noop import NoMigrationScheduler

        service = build_churn_service(seed=0, num_steps=10)
        with pytest.raises(ConfigurationError):
            service.run(
                NoMigrationScheduler(),
                checkpoint_every=5,
                checkpoint_path=str(tmp_path / "x.npz"),
            )

    def test_introspection_before_run_is_zero(self):
        service = build_churn_service(seed=0, num_steps=10)
        assert service.num_live_vms == 0
        assert service.churn_events_applied == 0
