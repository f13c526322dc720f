"""Unit tests for the metrics collector and figure series."""

import builtins

import pytest

from repro.baselines.random_policy import RandomScheduler
from repro.cloudsim.metrics import MetricsCollector, StepMetrics
from repro.cloudsim.sla import SlaAccountant
from repro.harness.builders import build_planetlab_simulation


def step(i, energy=1.0, sla=0.5, migrations=2, hosts=3, seconds=0.001):
    return StepMetrics(
        step=i,
        energy_cost_usd=energy,
        sla_cost_usd=sla,
        num_migrations_started=migrations,
        num_migrations_rejected=0,
        num_active_hosts=hosts,
        scheduler_seconds=seconds,
        mean_host_utilization=0.5,
        num_overloaded_hosts=0,
    )


@pytest.fixture
def collector():
    c = MetricsCollector()
    for i in range(5):
        c.record(step(i))
    return c


class TestAggregates:
    def test_total_cost(self, collector):
        assert collector.total_cost_usd == pytest.approx(7.5)

    def test_cost_split(self, collector):
        assert collector.total_energy_cost_usd == pytest.approx(5.0)
        assert collector.total_sla_cost_usd == pytest.approx(2.5)

    def test_total_migrations(self, collector):
        assert collector.total_migrations == 10

    def test_mean_active_hosts(self, collector):
        assert collector.mean_active_hosts == pytest.approx(3.0)

    def test_mean_scheduler_time(self, collector):
        assert collector.mean_scheduler_milliseconds == pytest.approx(1.0)

    def test_empty_collector(self):
        c = MetricsCollector()
        assert c.total_cost_usd == 0.0
        assert c.mean_active_hosts == 0.0
        assert c.mean_scheduler_seconds == 0.0


def _neumaier_sum(values, start=0):
    """CPython 3.12's compensated float ``sum``, in pure Python."""
    total, compensation, is_float = start, 0.0, False
    for value in values:
        if isinstance(value, float):
            is_float = True
            total = float(total)
            t = total + value
            if abs(total) >= abs(value):
                compensation += (total - t) + value
            else:
                compensation += (value - t) + total
            total = t
        else:
            total += value
    return total + compensation if is_float else total


class TestOrderedTotals:
    """Float totals are left-to-right, whatever builtin ``sum`` does."""

    def _totals(self, metrics, accountant):
        return (
            metrics.total_cost_usd,
            metrics.total_energy_cost_usd,
            metrics.total_sla_cost_usd,
            metrics.mean_scheduler_seconds,
            accountant.overall_sla_violation(),
        )

    def test_totals_ignore_a_compensated_builtin_sum(self, monkeypatch):
        result = build_planetlab_simulation(
            num_pms=4, num_vms=6, num_steps=12, seed=0
        ).run(RandomScheduler(migrations_per_step=1, seed=0))
        # Ten 0.1s: left to right 0.9999999999999999, compensated 1.0.
        crafted = MetricsCollector()
        for i in range(10):
            crafted.record(step(i, energy=0.1, sla=0.1, seconds=0.1))
        accountant = SlaAccountant()
        for vm_id in range(10):
            record = accountant.vm_record(vm_id)
            record.requested_seconds = 10.0
            record.migration_downtime_seconds = 1.0
        before = [
            self._totals(result.metrics, result.sla),
            self._totals(crafted, accountant),
        ]
        assert _neumaier_sum([0.1] * 10) != before[1][1]

        monkeypatch.setattr(builtins, "sum", _neumaier_sum)
        assert sum([0.1] * 10) == 1.0
        after = [
            self._totals(result.metrics, result.sla),
            self._totals(crafted, accountant),
        ]
        assert after == before
        assert [x.hex() for x in after[0]] == [x.hex() for x in before[0]]

    def test_empty_totals_keep_value_and_type(self):
        empty = MetricsCollector()
        assert empty.total_cost_usd == 0 and type(empty.total_cost_usd) is int
        assert type(empty.total_energy_cost_usd) is int
        assert type(empty.total_sla_cost_usd) is int
        assert type(empty.mean_scheduler_seconds) is float


class TestSeries:
    def test_per_step_cost(self, collector):
        assert collector.per_step_cost_series() == [1.5] * 5

    def test_cumulative_migrations(self, collector):
        assert collector.cumulative_migration_series() == [2, 4, 6, 8, 10]

    def test_active_hosts(self, collector):
        assert collector.active_host_series() == [3] * 5

    def test_scheduler_ms(self, collector):
        assert collector.scheduler_time_series_ms() == pytest.approx([1.0] * 5)

    def test_step_total(self):
        s = step(0, energy=2.0, sla=3.0)
        assert s.total_cost_usd == pytest.approx(5.0)


class TestConvergence:
    def test_flat_series_converges_immediately(self):
        c = MetricsCollector()
        for i in range(50):
            c.record(step(i, energy=1.0, sla=0.0))
        assert c.convergence_step(window=5) == 0

    def test_transient_then_flat(self):
        c = MetricsCollector()
        for i in range(20):
            c.record(step(i, energy=10.0, sla=0.0))
        for i in range(20, 100):
            c.record(step(i, energy=1.0, sla=0.0))
        conv = c.convergence_step(window=5)
        assert 20 <= conv <= 30

    def test_short_series(self):
        c = MetricsCollector()
        for i in range(3):
            c.record(step(i))
        assert c.convergence_step(window=10) == 3

    def test_never_settles(self):
        c = MetricsCollector()
        for i in range(60):
            c.record(step(i, energy=float(i), sla=0.0))
        # Strictly increasing cost: convergence at the very end.
        assert c.convergence_step(window=5) >= 50
