"""Unit tests for utilization monitoring and the robust statistics helpers."""

import pytest

from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.datacenter import Datacenter
from repro.errors import ConfigurationError

from tests.conftest import make_pm, make_vm
from tests.oracles.robust_stats import (
    interquartile_range,
    median,
    median_absolute_deviation,
)


class TestMonitor:
    def test_records_vm_and_host_histories(self, placed_datacenter):
        monitor = UtilizationMonitor(history_length=4)
        placed_datacenter.vm(0).set_demand(0.5)
        monitor.observe(placed_datacenter)
        assert monitor.vm_history(0) == [0.5]
        assert monitor.host_history(0) == pytest.approx([0.125])

    def test_history_bounded(self, placed_datacenter):
        monitor = UtilizationMonitor(history_length=3)
        for step in range(5):
            placed_datacenter.vm(0).set_demand(step / 10.0)
            monitor.observe(placed_datacenter)
        assert monitor.vm_history(0) == pytest.approx([0.2, 0.3, 0.4])

    def test_steps_observed(self, placed_datacenter):
        monitor = UtilizationMonitor()
        monitor.observe(placed_datacenter)
        monitor.observe(placed_datacenter)
        assert monitor.steps_observed == 2

    def test_unknown_entity_empty_history(self):
        monitor = UtilizationMonitor()
        assert monitor.vm_history(99) == []
        assert monitor.last_host_utilization(99, default=0.3) == 0.3

    def test_last_host_utilization(self, placed_datacenter):
        monitor = UtilizationMonitor()
        placed_datacenter.vm(4).set_demand(0.8)
        monitor.observe(placed_datacenter)
        assert monitor.last_host_utilization(2) == pytest.approx(0.2)

    def test_invalid_history_length(self):
        with pytest.raises(ConfigurationError):
            UtilizationMonitor(history_length=0)

    def test_host_histories_snapshot(self, placed_datacenter):
        monitor = UtilizationMonitor()
        monitor.observe(placed_datacenter)
        snapshot = monitor.host_histories()
        snapshot[0].append(99.0)
        assert len(monitor.host_history(0)) == 1

    def test_fleet_size_change_rejected(self, placed_datacenter):
        monitor = UtilizationMonitor()
        monitor.observe(placed_datacenter)
        other = Datacenter([make_pm(0)], [make_vm(0)])
        with pytest.raises(ValueError, match="monitor rings cover"):
            monitor.observe(other)
        assert monitor.steps_observed == 1

    @pytest.mark.parametrize("observations", [0, 2, 7])
    def test_state_restore_round_trip(self, placed_datacenter, observations):
        monitor = UtilizationMonitor(history_length=4)
        for step in range(observations):
            placed_datacenter.vm(0).set_demand(step / 10.0)
            monitor.observe(placed_datacenter)
        counters, rings = monitor.state()
        restored = UtilizationMonitor.restore(counters, rings)
        assert restored.steps_observed == observations
        assert restored.history_length == 4
        assert restored.vm_history(0) == monitor.vm_history(0)
        assert restored.host_matrix().tolist() == monitor.host_matrix().tolist()
        # The restored rings are copies: observing one leaves the other.
        before = monitor.host_matrix().tolist()
        restored.observe(placed_datacenter)
        assert monitor.host_matrix().tolist() == before


class TestStatistics:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)

    def test_median_empty(self):
        assert median([]) == 0.0

    def test_iqr(self):
        # 1..8: Q1 = 2.75, Q3 = 6.25 -> IQR 3.5 (linear interpolation).
        values = [float(v) for v in range(1, 9)]
        assert interquartile_range(values) == pytest.approx(3.5)

    def test_iqr_short(self):
        assert interquartile_range([1.0]) == 0.0

    def test_mad(self):
        # median 2; |x - 2| = [1, 0, 1] -> MAD 1.
        assert median_absolute_deviation([1.0, 2.0, 3.0]) == 1.0

    def test_mad_constant(self):
        assert median_absolute_deviation([5.0] * 4) == 0.0
