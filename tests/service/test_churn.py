"""Unit tests for churn generation and lifecycle-trace replay."""

import pytest

from repro.cloudsim.events import EventKind, EventLog
from repro.errors import ConfigurationError
from repro.service.churn import (
    CREATE,
    DELETE,
    RESIZE,
    ChurnConfig,
    ChurnEvent,
    ChurnModel,
    TraceChurnModel,
)

_KIND_ORDER = {DELETE: 0, RESIZE: 1, CREATE: 2}


class TestChurnModel:
    def test_same_seed_same_schedule(self):
        config = ChurnConfig()
        a = ChurnModel(config, num_steps=50, seed=4)
        b = ChurnModel(config, num_steps=50, seed=4)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        config = ChurnConfig()
        a = ChurnModel(config, num_steps=50, seed=4)
        b = ChurnModel(config, num_steps=50, seed=5)
        assert a.events != b.events

    def test_initial_fleet_arrives_at_step_zero(self):
        model = ChurnModel(ChurnConfig(initial_vms=5), num_steps=30, seed=0)
        first = [e for e in model.events if e.step == 0]
        assert len(first) >= 5
        assert all(e.kind == CREATE for e in first[:5])

    def test_schedule_is_sorted_with_deletes_first(self):
        model = ChurnModel(
            ChurnConfig(arrival_rate=2.0, mean_lifetime_steps=4.0),
            num_steps=60,
            seed=1,
        )
        keys = [(e.step, _KIND_ORDER[e.kind]) for e in model.events]
        assert keys == sorted(keys)

    def test_uids_unique_and_dense(self):
        model = ChurnModel(ChurnConfig(), num_steps=40, seed=2)
        uids = [e.uid for e in model.events if e.kind == CREATE]
        assert uids == list(range(len(uids)))

    def test_every_delete_and_resize_follows_its_create(self):
        model = ChurnModel(
            ChurnConfig(arrival_rate=2.0, mean_lifetime_steps=5.0),
            num_steps=60,
            seed=3,
        )
        created_at = {
            e.uid: e.step for e in model.events if e.kind == CREATE
        }
        for event in model.events:
            if event.kind in (DELETE, RESIZE):
                assert event.step > created_at[event.uid]

    def test_invalid_num_steps(self):
        with pytest.raises(ConfigurationError):
            ChurnModel(ChurnConfig(), num_steps=0)


class TestChurnConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": -0.1},
            {"mean_lifetime_steps": 0.5},
            {"initial_vms": -1},
            {"resize_probability": 1.5},
            {"vm_mips_range": (0.0, 100.0)},
            {"vm_ram_range_mb": (200.0, 100.0)},
            {"resize_factor_range": (-1.0, 2.0)},
            {"vm_bandwidth_mbps": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChurnConfig(**kwargs)

    def test_defaults_valid(self):
        ChurnConfig()


class TestChurnEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnEvent(step=0, kind="explode", uid=0)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnEvent(step=-1, kind=CREATE, uid=0)


class TestTraceChurnModel:
    def _lifecycle_log(self) -> EventLog:
        log = EventLog()
        log.emit(
            0,
            EventKind.VM_CREATED,
            uid=0,
            vm_id=0,
            mips=900.0,
            ram_mb=700.0,
            bandwidth_mbps=100.0,
        )
        log.emit(2, EventKind.VM_RESIZED, uid=0, vm_id=0, mips=1200.0)
        # A non-lifecycle line the parser must skip.
        log.emit(2, EventKind.HOST_OVERLOADED, pm_id=1)
        log.emit(4, EventKind.VM_DELETED, uid=0, vm_id=0)
        return log

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        self._lifecycle_log().save_jsonl(path)
        model = TraceChurnModel.from_jsonl(path, num_steps=10)
        assert [e.kind for e in model.events] == [CREATE, RESIZE, DELETE]
        create = model.events[0]
        assert (create.uid, create.mips, create.ram_mb) == (0, 900.0, 700.0)
        assert model.events[1].mips == 1200.0
        assert model.events[2].step == 4

    def test_orders_same_step_deletes_before_creates(self):
        events = [
            ChurnEvent(step=3, kind=CREATE, uid=1, mips=1.0, ram_mb=1.0,
                       bandwidth_mbps=1.0),
            ChurnEvent(step=3, kind=DELETE, uid=0),
        ]
        model = TraceChurnModel(events, num_steps=5)
        assert [e.kind for e in model.events] == [DELETE, CREATE]

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceChurnModel(
                [ChurnEvent(step=7, kind=DELETE, uid=0)], num_steps=5
            )

    def test_missing_uid_rejected(self, tmp_path):
        log = EventLog()
        log.emit(0, EventKind.VM_CREATED, vm_id=0, mips=1.0, ram_mb=1.0,
                 bandwidth_mbps=1.0)
        path = str(tmp_path / "bad.jsonl")
        log.save_jsonl(path)
        with pytest.raises(ConfigurationError):
            TraceChurnModel.from_jsonl(path, num_steps=5)

    def test_create_missing_capacity_rejected(self, tmp_path):
        log = EventLog()
        log.emit(0, EventKind.VM_CREATED, uid=0, vm_id=0)
        path = str(tmp_path / "bad.jsonl")
        log.save_jsonl(path)
        with pytest.raises(ConfigurationError):
            TraceChurnModel.from_jsonl(path, num_steps=5)

    def test_resize_missing_mips_rejected(self, tmp_path):
        log = EventLog()
        log.emit(0, EventKind.VM_RESIZED, uid=0, vm_id=0)
        path = str(tmp_path / "bad.jsonl")
        log.save_jsonl(path)
        with pytest.raises(ConfigurationError):
            TraceChurnModel.from_jsonl(path, num_steps=5)


#: Malformed lifecycle-trace lines: each must be a ConfigurationError,
#: never a bare ValueError or a run that carries on with a bad size.
_BAD_TRACE_LINES = {
    "unknown-kind": '{"step": 0, "kind": "bogus", "uid": 0}',
    "non-object": "[0, 1]",
    "step-not-int": '{"step": "x", "kind": "vm_deleted", "uid": 0}',
    "uid-not-int": '{"step": 0, "kind": "vm_deleted", "uid": "abc"}',
    "mips-not-number": (
        '{"step": 0, "kind": "vm_created", "uid": 0, "mips": "fast", '
        '"ram_mb": 700.0, "bandwidth_mbps": 100.0}'
    ),
    "mips-nan": (
        '{"step": 0, "kind": "vm_created", "uid": 0, "mips": NaN, '
        '"ram_mb": 700.0, "bandwidth_mbps": 100.0}'
    ),
    "mips-negative": (
        '{"step": 0, "kind": "vm_created", "uid": 0, "mips": -5, '
        '"ram_mb": 700.0, "bandwidth_mbps": 100.0}'
    ),
    "ram-zero": (
        '{"step": 0, "kind": "vm_created", "uid": 0, "mips": 900.0, '
        '"ram_mb": 0, "bandwidth_mbps": 100.0}'
    ),
    "resize-mips-infinite": (
        '{"step": 0, "kind": "vm_resized", "uid": 0, "mips": Infinity}'
    ),
}


class TestMalformedTrace:
    @pytest.mark.parametrize(
        "line", list(_BAD_TRACE_LINES.values()), ids=list(_BAD_TRACE_LINES)
    )
    def test_bad_line_is_a_configuration_error(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            TraceChurnModel.from_jsonl(str(path), num_steps=5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=CREATE, mips=float("nan"), ram_mb=1.0,
                 bandwidth_mbps=1.0),
            dict(kind=CREATE, mips=1.0, ram_mb=-1.0, bandwidth_mbps=1.0),
            dict(kind=CREATE, mips=1.0, ram_mb=1.0),
            dict(kind=RESIZE, mips=0.0),
        ],
    )
    def test_churn_event_rejects_bad_sizes(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChurnEvent(step=0, uid=0, **kwargs)

    def test_serve_exits_2_on_bad_trace(self, tmp_path, capsys):
        from repro.service.cli import run as serve

        path = tmp_path / "bad.jsonl"
        path.write_text(_BAD_TRACE_LINES["mips-nan"] + "\n", encoding="utf-8")
        assert serve(["--steps", "6", "--trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert "mips" in captured.err
        assert captured.out == ""
