"""The benchmark's own arithmetic: self time, percentile rule, ratios, slowdown."""

import random

import numpy as np
import pytest

import spans
from spans import Tracer
from stats import (
    percentile,
    ratio,
    reportable,
    self_time,
    tail_percentile,
    union_length,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_union_of_children():
    # [1, 5] and [8, 10] of the children fall inside [0, 10].
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_self_time_ignores_children_outside_the_span():
    assert self_time(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 10.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_union_length_counts_overlap_once():
    assert union_length([(0, 4), (1, 2), (3, 6)], 0, 10) == 6
    assert union_length([(0, 4), (1, 2), (3, 6)], 2, 5) == 3


def test_tracer_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = Tracer("run")

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5
        traced_inner()
        clock.now += 0.25

    tracer.wrap("outer", outer)()
    assert tracer.seconds("outer") == pytest.approx(5.75)
    assert tracer.seconds("inner") == pytest.approx(4.0)
    assert tracer.self_seconds("outer") == pytest.approx(1.75)
    assert tracer.self_seconds("inner") == pytest.approx(4.0)
    # The parentless span covers [0, 5.75]; the rest of [0, 7] is driver time.
    assert tracer.root_self_seconds(0.0, 7.0) == pytest.approx(1.25)
    assert tracer.top_level(0.0, 7.0) == {"outer": pytest.approx(5.75)}


def test_tracer_patch_is_undone_by_restore():
    class Engine:
        def start(self):
            return "started"

    engine = Engine()
    tracer = Tracer("run")
    tracer.patch(Engine, "start", "engine.start")
    tracer.patch(engine, "start", "engine.start.instance")
    assert engine.start() == "started"
    assert len(tracer.intervals("engine.start")) == 1
    assert len(tracer.intervals("engine.start.instance")) == 1
    tracer.restore()
    assert "start" not in vars(engine)
    assert Engine.__dict__["start"].__name__ == "start"


def test_a_percentile_needs_ten_samples_beyond_it():
    assert reportable(1000, 99.0)
    assert not reportable(999, 99.0)
    assert reportable(20, 50.0)
    assert not reportable(19, 50.0)
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(4032) == 99.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(48) == 75.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(5) == 50.0


def test_percentile_matches_numpy_linear():
    rng = random.Random(7)
    values = [rng.random() for _ in range(37)]
    for q in (0.0, 25.0, 50.0, 75.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_ratio_counters():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0
    assert ratio(76766, 76766 + 1465151) == pytest.approx(0.04979, abs=1e-5)


def test_boundary_counts_feed_the_ratios():
    from types import SimpleNamespace

    from scenarios import Counts

    counts = Counts()
    counts.plan(SimpleNamespace(num_actions=7), ())
    counts.plan(SimpleNamespace(num_actions=5), ())
    # power_aware_best_fit(datacenter, vm_ids, ...) -> {vm_id: pm_id}
    counts.place({1: 0, 2: 3}, (None, [1, 2]))
    counts.place({1: 0}, (None, [1, 2]))
    counts.place({}, (None, [4]))
    assert counts.candidate_actions == 12
    assert counts.place_calls == 3
    assert ratio(counts.place_full, counts.place_calls) == pytest.approx(1 / 3)


def test_slowdown_is_the_mean_slice_time_over_the_nominal_one():
    from hostspeed import NOMINAL_SLICE_SECONDS, SpeedProbe

    probe = SpeedProbe()
    assert probe.slowdown() == 1.0
    probe.samples = [NOMINAL_SLICE_SECONDS, 2.0 * NOMINAL_SLICE_SECONDS]
    assert probe.slowdown() == pytest.approx(1.5)


def test_slices_between_steps_keep_their_interval(monkeypatch):
    import hostspeed

    clock = FakeClock()
    monkeypatch.setattr(hostspeed.time, "perf_counter", clock)
    monkeypatch.setattr(hostspeed, "reference_slice", lambda: None)
    probe = hostspeed.SpeedProbe()
    assert probe.between_steps() == 0.0  # a slice, which took no time
    clock.now += hostspeed.PROBE_INTERVAL_SECONDS / 2
    probe.between_steps()
    assert len(probe.samples) == 1
    clock.now += hostspeed.PROBE_INTERVAL_SECONDS
    probe.between_steps()
    assert len(probe.samples) == 2
