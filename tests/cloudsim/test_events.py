"""Tests for the structured event log."""

import numpy as np
import pytest

from repro.baselines.mmt.scheduler import MMTScheduler
from repro.baselines.random_policy import RandomScheduler
from repro.cloudsim.events import Event, EventKind, EventLog
from repro.cloudsim.simulation import StepPipeline
from repro.core.agent import MeghScheduler
from repro.errors import ConfigurationError
from repro.harness.builders import build_planetlab_simulation
from repro.service.builders import build_churn_service


class TestEvent:
    def test_json_roundtrip(self):
        event = Event(step=3, kind=EventKind.MIGRATION_STARTED,
                      payload={"vm_id": 1, "pm_id": 2})
        restored = Event.from_json(event.to_json())
        assert restored == event

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            Event.from_json("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            Event.from_json('{"kind": "custom"}')


class TestEventLog:
    @pytest.fixture
    def log(self):
        log = EventLog()
        log.emit(0, EventKind.MIGRATION_STARTED, vm_id=1, pm_id=2)
        log.emit(0, EventKind.HOST_OVERLOADED, pm_id=2)
        log.emit(1, EventKind.MIGRATION_COMPLETED, vm_id=1)
        log.emit(1, EventKind.MIGRATION_STARTED, vm_id=3, pm_id=0)
        return log

    def test_length_and_iteration(self, log):
        assert len(log) == 4
        assert len(list(log)) == 4

    def test_query_by_kind(self, log):
        started = log.query(kind=EventKind.MIGRATION_STARTED)
        assert len(started) == 2

    def test_query_by_step(self, log):
        assert len(log.query(step=1)) == 2

    def test_query_by_vm(self, log):
        assert len(log.query(vm_id=1)) == 2

    def test_query_by_pm(self, log):
        assert len(log.query(pm_id=2)) == 2

    def test_query_combined(self, log):
        matches = log.query(kind=EventKind.MIGRATION_STARTED, vm_id=3)
        assert len(matches) == 1
        assert matches[0].step == 1

    def test_counts(self, log):
        counts = log.counts()
        assert counts[EventKind.MIGRATION_STARTED] == 2
        assert counts[EventKind.HOST_OVERLOADED] == 1

    def test_jsonl_roundtrip(self, log, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log.save_jsonl(path)
        restored = EventLog.load_jsonl(path)
        assert list(restored) == list(log)


class TestSimulationIntegration:
    def test_simulation_emits_events(self, tiny_simulation):
        log = EventLog()
        tiny_simulation.run(
            RandomScheduler(migrations_per_step=1, seed=0), event_log=log
        )
        counts = log.counts()
        assert counts.get(EventKind.MIGRATION_STARTED, 0) > 0
        # Every start eventually completes (fast transfers).
        assert counts.get(EventKind.MIGRATION_COMPLETED, 0) == counts.get(
            EventKind.MIGRATION_STARTED, 0
        )

    def test_event_steps_within_run(self, tiny_simulation):
        log = EventLog()
        tiny_simulation.reset()
        tiny_simulation.run(
            RandomScheduler(migrations_per_step=1, seed=1),
            num_steps=10,
            event_log=log,
        )
        assert all(0 <= event.step < 10 for event in log)

    def test_no_log_no_overhead(self, tiny_simulation):
        tiny_simulation.reset()
        result = tiny_simulation.run(
            RandomScheduler(migrations_per_step=1, seed=0)
        )
        assert len(result.metrics.steps) == 20


class TestSleepStateReplay:
    """``host_slept`` and ``host_woken`` rebuild every host's sleep state."""

    @staticmethod
    def _record_states(monkeypatch):
        """Sleep states at pipeline construction and after each step."""
        states = {}
        init, step = StepPipeline.__init__, StepPipeline.step

        def recording_init(self, datacenter, *args, **kwargs):
            init(self, datacenter, *args, **kwargs)
            states["initial"] = datacenter.arrays.pm_asleep.copy()

        def recording_step(self, index, *args, **kwargs):
            step(self, index, *args, **kwargs)
            states[index] = self.datacenter.arrays.pm_asleep.copy()

        monkeypatch.setattr(StepPipeline, "__init__", recording_init)
        monkeypatch.setattr(StepPipeline, "step", recording_step)
        return states

    @staticmethod
    def _assert_replays(log, states):
        asleep = states.pop("initial").copy()
        by_step = {}
        for event in log:
            by_step.setdefault(event.step, []).append(event)
        for index in sorted(states):
            for event in by_step.get(index, []):
                pm_id = event.payload.get("pm_id")
                if event.kind == EventKind.HOST_WOKEN:
                    assert asleep[pm_id], f"step {index}: host {pm_id}"
                    asleep[pm_id] = False
                elif event.kind == EventKind.HOST_SLEPT:
                    assert not asleep[pm_id], f"step {index}: host {pm_id}"
                    asleep[pm_id] = True
            np.testing.assert_array_equal(asleep, states[index])
        counts = log.counts()
        assert counts.get(EventKind.HOST_WOKEN, 0) > 0
        assert counts.get(EventKind.HOST_SLEPT, 0) > 0

    def test_batch_run(self, monkeypatch):
        states = self._record_states(monkeypatch)
        simulation = build_planetlab_simulation(
            seed=3, num_pms=40, num_vms=24, num_steps=40
        )
        log = EventLog()
        simulation.run(MMTScheduler("THR"), event_log=log)
        self._assert_replays(log, states)

    def test_churn_run(self, monkeypatch):
        states = self._record_states(monkeypatch)
        service = build_churn_service(seed=0, num_steps=60)
        log = EventLog()
        agent = MeghScheduler.from_simulation(service, seed=0)
        service.run(agent, event_log=log)
        self._assert_replays(log, states)
        # Some wakes come from arrivals: no migration starts there.
        destinations = {
            (event.step, event.payload["pm_id"])
            for event in log.query(kind=EventKind.MIGRATION_STARTED)
        }
        assert any(
            (event.step, event.payload["pm_id"]) not in destinations
            for event in log.query(kind=EventKind.HOST_WOKEN)
        )
