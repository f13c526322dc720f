"""Tests for VM selection policies and PABFD placement."""

import pytest

from repro.baselines.mmt.placement import (
    hosts_by_utilization,
    power_aware_best_fit,
)
from repro.baselines.mmt.selection import (
    HighestDemandSelection,
    MinimumMigrationTimeSelection,
    RandomSelection,
    make_selection,
)
from repro.cloudsim.datacenter import Datacenter
from repro.errors import ConfigurationError

from tests.conftest import make_pm, make_vm
from tests.oracles.pabfd import power_increase


@pytest.fixture
def dc():
    pms = [make_pm(i) for i in range(3)]
    vms = [
        make_vm(0, mips=2000.0, ram_mb=2048.0),
        make_vm(1, mips=1000.0, ram_mb=512.0),
        make_vm(2, mips=1500.0, ram_mb=1024.0),
    ]
    datacenter = Datacenter(pms, vms)
    for vm_id in range(3):
        datacenter.place(vm_id, 0)
    return datacenter


class TestSelection:
    def test_mmt_orders_by_migration_time(self, dc):
        order = MinimumMigrationTimeSelection().select(dc, [0, 1, 2])
        # Migration time ~ RAM/bandwidth: 512 < 1024 < 2048.
        assert order == [1, 2, 0]

    def test_highest_demand(self, dc):
        dc.vm(0).set_demand(0.1)  # 200 MIPS
        dc.vm(1).set_demand(0.9)  # 900 MIPS
        dc.vm(2).set_demand(0.4)  # 600 MIPS
        order = HighestDemandSelection().select(dc, [0, 1, 2])
        assert order == [1, 2, 0]

    def test_random_is_permutation(self, dc):
        order = RandomSelection(seed=0).select(dc, [0, 1, 2])
        assert sorted(order) == [0, 1, 2]

    def test_random_deterministic(self, dc):
        a = RandomSelection(seed=3).select(dc, [0, 1, 2])
        b = RandomSelection(seed=3).select(dc, [0, 1, 2])
        assert a == b

    def test_factory(self):
        assert make_selection("MMT").name == "MMT"
        assert make_selection("rs").name == "RS"
        with pytest.raises(ConfigurationError):
            make_selection("nope")


class TestPowerIncrease:
    def test_positive_for_added_demand(self, dc):
        assert power_increase(dc, 1, extra_mips=2000.0) > 0.0

    def test_wake_cost_for_sleeping_host(self, dc):
        dc.pm(2).sleep()
        awake = power_increase(dc, 1, extra_mips=1000.0)
        asleep = power_increase(dc, 2, extra_mips=1000.0)
        # Waking host 2 adds its idle draw on top of the increment.
        assert asleep > awake

    def test_pending_mips_accounted(self, dc):
        base = power_increase(dc, 1, extra_mips=1000.0)
        with_pending = power_increase(
            dc, 1, extra_mips=1000.0, pending_mips=3000.0
        )
        # Host nearly saturated by pending demand: the same extra MIPS
        # adds less *visible* power because utilization caps at 100 %.
        assert with_pending <= base + 1e-9


class TestPabfd:
    def test_places_within_threshold(self, dc):
        dc.vm(0).set_demand(0.9)
        plan = power_aware_best_fit(dc, [0], threshold=0.7)
        assert 0 in plan
        dest = plan[0]
        assert dest != 0
        projected = dc.demanded_mips(dest) + dc.vm(0).demanded_mips
        assert projected <= 0.7 * dc.pm(dest).mips

    def test_respects_exclusions(self, dc):
        dc.vm(0).set_demand(0.5)
        plan = power_aware_best_fit(
            dc, [0], threshold=0.7, excluded_hosts=[1]
        )
        assert plan.get(0) == 2

    def test_unplaceable_vm_absent_from_plan(self, dc):
        dc.vm(0).set_demand(1.0)
        plan = power_aware_best_fit(
            dc, [0], threshold=0.7, excluded_hosts=[1, 2]
        )
        assert plan == {}

    def test_ram_respected_within_plan(self):
        # Two 2048-MB VMs cannot both go to one 4096-MB host that
        # already carries 1024 MB.
        pms = [make_pm(0), make_pm(1)]
        vms = [
            make_vm(0, ram_mb=2048.0),
            make_vm(1, ram_mb=2048.0),
            make_vm(2, ram_mb=1024.0),
        ]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 0)
        dc.place(2, 1)
        plan = power_aware_best_fit(dc, [0, 1], threshold=1.0)
        # Only one of them fits on host 1.
        assert len(plan) == 1

    def test_prefers_lower_power_increase(self):
        # Host 1 (G5) draws more than host 2 (G4) — wait: even ids are G4.
        pms = [make_pm(0), make_pm(1), make_pm(2)]
        vms = [make_vm(0), make_vm(1)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 2)  # host 2 (G4) already awake
        dc.pm(1).sleep()
        dc.vm(0).set_demand(0.5)
        plan = power_aware_best_fit(dc, [0], threshold=0.7)
        # Waking sleeping host 1 costs ~94 W extra; host 2 is cheaper.
        assert plan[0] == 2

    def test_decreasing_demand_order(self):
        # The biggest VM gets first pick (best-fit decreasing).
        pms = [make_pm(0), make_pm(1, mips=2000.0)]
        vms = [
            make_vm(0, mips=1800.0, ram_mb=512.0),
            make_vm(1, mips=400.0, ram_mb=512.0),
        ]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 0)
        dc.vm(0).set_demand(0.7)  # 1260 MIPS
        dc.vm(1).set_demand(0.5)  # 200 MIPS
        plan = power_aware_best_fit(dc, [0, 1], threshold=0.7)
        # 1260 MIPS only fits host 1 if placed first (0.7*2000 = 1400).
        assert plan[0] == 1


class TestHostsByUtilization:
    def test_orders_ascending(self, dc):
        dc.vm(0).set_demand(0.9)
        dc.move(1, 1)
        dc.vm(1).set_demand(0.1)
        order = hosts_by_utilization(dc)
        assert order[0] == 1
        assert order[-1] == 0


class TestMaximumCorrelation:
    def _monitor_with_histories(self, dc, histories):
        from repro.cloudsim.monitor import UtilizationMonitor

        monitor = UtilizationMonitor(history_length=8)
        for step in range(len(next(iter(histories.values())))):
            for vm_id, series in histories.items():
                dc.vm(vm_id).set_demand(series[step])
            monitor.observe(dc)
        return monitor

    def test_evicts_most_correlated_vm(self, dc):
        from repro.baselines.mmt.selection import MaximumCorrelationSelection

        # VM 0 tracks the host's swings; VMs 1-2 stay flat.
        histories = {
            0: [0.1, 0.8, 0.1, 0.8, 0.1, 0.8],
            1: [0.4] * 6,
            2: [0.3, 0.31, 0.3, 0.31, 0.3, 0.31],
        }
        monitor = self._monitor_with_histories(dc, histories)
        policy = MaximumCorrelationSelection(monitor=monitor)
        order = policy.select(dc, [0, 1, 2])
        assert order[0] == 0

    def test_falls_back_without_monitor(self, dc):
        from repro.baselines.mmt.selection import MaximumCorrelationSelection

        dc.vm(0).set_demand(0.1)
        dc.vm(1).set_demand(0.9)
        dc.vm(2).set_demand(0.4)
        policy = MaximumCorrelationSelection(monitor=None)
        order = policy.select(dc, [0, 1, 2])
        assert order[0] == 1  # highest demand fallback

    def test_short_history_ranked_last(self, dc):
        from repro.baselines.mmt.selection import MaximumCorrelationSelection
        from repro.cloudsim.monitor import UtilizationMonitor

        monitor = UtilizationMonitor()
        monitor.observe(dc)  # one sample only
        policy = MaximumCorrelationSelection(monitor=monitor, min_history=4)
        order = policy.select(dc, [0, 1])
        assert sorted(order) == [0, 1]

    def test_factory_includes_mc(self):
        from repro.baselines.mmt.selection import make_selection

        assert make_selection("MC").name == "MC"

    def test_mc_binds_monitor_inside_scheduler(self):
        from repro.baselines.mmt.scheduler import MMTScheduler
        from repro.baselines.mmt.selection import MaximumCorrelationSelection
        from repro.harness.builders import build_planetlab_simulation

        sim = build_planetlab_simulation(num_pms=4, num_vms=6, num_steps=15)
        scheduler = MMTScheduler(
            "THR", selection=MaximumCorrelationSelection()
        )
        sim.run(scheduler)
        assert scheduler.selection.monitor is sim.monitor
