"""Unit tests for the SLA accountant (Eqs. 4-5, windowed billing)."""

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.sla import SlaAccountant
from repro.errors import ConfigurationError

from tests.conftest import make_pm, make_vm


@pytest.fixture
def overloadable():
    dc = Datacenter([make_pm(0), make_pm(1)], [make_vm(0, mips=4000.0), make_vm(1)])
    dc.place(0, 0)
    dc.place(1, 1)
    return dc


class TestHostAccounting:
    def test_active_time_accrues(self, overloadable):
        acc = SlaAccountant(beta=0.7)
        acc.observe_step(overloadable, 300.0)
        assert acc.host_record(0).active_seconds == 300.0

    def test_overload_time_accrues(self, overloadable):
        overloadable.vm(0).set_demand(0.9)  # 3600 of 4000 = 90 % > beta
        acc = SlaAccountant(beta=0.7)
        acc.observe_step(overloadable, 300.0)
        assert acc.host_record(0).overload_seconds == 300.0
        assert acc.host_record(0).overload_fraction == pytest.approx(1.0)

    def test_no_overload_below_beta(self, overloadable):
        overloadable.vm(0).set_demand(0.5)
        acc = SlaAccountant(beta=0.7)
        acc.observe_step(overloadable, 300.0)
        assert acc.host_record(0).overload_seconds == 0.0

    def test_empty_host_not_active(self, overloadable):
        acc = SlaAccountant()
        overloadable.remove(1)
        acc.observe_step(overloadable, 300.0)
        assert 1 not in acc.hosts


class TestVmAccounting:
    def test_requested_time(self, overloadable):
        acc = SlaAccountant()
        acc.observe_step(overloadable, 300.0)
        assert acc.vm_record(0).requested_seconds == 300.0

    def test_overload_downtime_full_interval(self, overloadable):
        overloadable.vm(0).set_demand(0.9)
        acc = SlaAccountant(beta=0.7)
        acc.observe_step(overloadable, 300.0)
        assert acc.vm_record(0).overload_downtime_seconds == 300.0
        # The colocated-free VM on host 1 accrues nothing.
        assert acc.vm_record(1).overload_downtime_seconds == 0.0

    def test_migration_downtime_recorded(self, overloadable):
        acc = SlaAccountant()
        acc.observe_step(overloadable, 300.0, migration_downtime={1: 12.0})
        assert acc.vm_record(1).migration_downtime_seconds == 12.0
        assert acc.downtime_fraction(1) == pytest.approx(12.0 / 300.0)

    def test_inactive_vm_not_billed(self, overloadable):
        overloadable.vm(0).set_active(False)
        acc = SlaAccountant()
        acc.observe_step(overloadable, 300.0)
        assert 0 not in acc.vms or acc.vm_record(0).requested_seconds == 0.0

    def test_downtime_fraction_zero_for_unknown_vm(self):
        acc = SlaAccountant()
        assert acc.downtime_fraction(42) == 0.0

    def test_interval_must_be_positive(self, overloadable):
        acc = SlaAccountant()
        with pytest.raises(ConfigurationError):
            acc.observe_step(overloadable, 0.0)


class TestWindowedBilling:
    def test_violation_recovers_after_window(self, overloadable):
        acc = SlaAccountant(
            beta=0.7, window_seconds=3 * 300.0, interval_seconds=300.0
        )
        overloadable.vm(0).set_demand(0.9)
        acc.observe_step(overloadable, 300.0)
        assert acc.downtime_fraction(0) == pytest.approx(1.0)
        overloadable.vm(0).set_demand(0.1)
        for _ in range(3):
            acc.observe_step(overloadable, 300.0)
        # The overloaded step has left the 3-step window.
        assert acc.downtime_fraction(0) == 0.0

    def test_cumulative_fraction_never_recovers(self, overloadable):
        acc = SlaAccountant(
            beta=0.7, window_seconds=300.0, interval_seconds=300.0
        )
        overloadable.vm(0).set_demand(0.9)
        acc.observe_step(overloadable, 300.0)
        overloadable.vm(0).set_demand(0.1)
        acc.observe_step(overloadable, 300.0)
        record = acc.vm_record(0)
        assert record.cumulative_downtime_fraction == pytest.approx(0.5)
        assert record.downtime_fraction == 0.0

    def test_step_downtime_capped_at_interval(self, overloadable):
        acc = SlaAccountant(beta=0.7)
        overloadable.vm(0).set_demand(0.9)
        # Migration downtime on top of full overload downtime: capped.
        acc.observe_step(
            overloadable, 300.0, migration_downtime={0: 100.0}
        )
        assert acc.downtime_fraction(0) <= 1.0

    def test_window_steps_derived(self):
        acc = SlaAccountant(window_seconds=86400.0, interval_seconds=300.0)
        assert acc.window_steps == 288

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            SlaAccountant(window_seconds=0.0)

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            SlaAccountant(beta=0.0)


class TestOverallViolation:
    def test_empty_accountant(self):
        assert SlaAccountant().overall_sla_violation() == 0.0

    def test_mean_across_vms(self, overloadable):
        acc = SlaAccountant(beta=0.7)
        overloadable.vm(0).set_demand(0.9)
        acc.observe_step(overloadable, 300.0)
        # VM 0 fully down, VM 1 fully up -> mean 0.5.
        assert acc.overall_sla_violation() == pytest.approx(0.5)


class TestVmSlaRecord:
    def test_window_eviction(self):
        acc = SlaAccountant(window_seconds=600.0, interval_seconds=300.0)
        record = acc.vm_record(0)
        record.record_step(10.0, 100.0)
        record.record_step(0.0, 100.0)
        assert record.downtime_fraction == pytest.approx(0.05)
        record.record_step(0.0, 100.0)
        assert record.window_entries() == [(0.0, 100.0), (0.0, 100.0)]
        assert record.downtime_fraction == 0.0

    def test_zero_requested(self):
        record = SlaAccountant().vm_record(0)
        assert record.downtime_fraction == 0.0
        assert record.cumulative_downtime_fraction == 0.0
