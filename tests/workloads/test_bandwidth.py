"""Tests for the bandwidth-dimension (multi-resource) extension."""

import numpy as np
import pytest

from repro.baselines.noop import NoMigrationScheduler
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import Simulation
from repro.cloudsim.sla import SlaAccountant
from repro.config import DatacenterConfig, SimulationConfig
from repro.core.agent import MeghScheduler
from repro.errors import ConfigurationError, TraceError
from repro.workloads.base import ArrayWorkload
from repro.workloads.bandwidth import (
    BandwidthWorkload,
    derive_bandwidth_workload,
)
from repro.workloads.planetlab import generate_planetlab_workload

from tests.conftest import make_pm, make_vm


@pytest.fixture
def cpu_workload():
    return ArrayWorkload(
        np.array([[0.2, 0.4], [0.6, 0.8]]), name="cpu"
    )


class TestBandwidthWorkload:
    def test_wraps_cpu_and_adds_bandwidth(self, cpu_workload):
        bw = BandwidthWorkload(
            cpu_workload, np.array([[0.1, 0.2], [0.3, 0.4]])
        )
        assert bw.num_vms == 2
        assert bw.utilization(0, 1) == pytest.approx(0.4)
        _, _, bandwidth = bw.step_slice(0)
        assert bandwidth[1] == pytest.approx(0.3)

    def test_shape_mismatch(self, cpu_workload):
        with pytest.raises(TraceError):
            BandwidthWorkload(cpu_workload, np.zeros((3, 2)))

    def test_range_checked(self, cpu_workload):
        with pytest.raises(TraceError):
            BandwidthWorkload(cpu_workload, np.full((2, 2), 1.5))

    def test_nan_rejected(self, cpu_workload):
        bandwidth = np.full((2, 2), 0.3)
        bandwidth[0, 1] = np.nan
        with pytest.raises(TraceError):
            BandwidthWorkload(cpu_workload, bandwidth)

    def test_inactive_steps_have_zero_bandwidth(self):
        cpu = ArrayWorkload(
            np.array([[0.5, 0.5]]),
            active=np.array([[True, False]]),
        )
        bw = BandwidthWorkload(cpu, np.array([[0.9, 0.9]]))
        # The column is raw; consumers zero it where the VM is inactive,
        # as the simulation driver does.
        for step, expected in ((0, 0.9), (1, 0.0)):
            active, _, bandwidth = bw.step_slice(step)
            assert np.where(active, bandwidth, 0.0)[0] == expected


class TestDerive:
    def test_correlation_with_cpu(self):
        cpu = generate_planetlab_workload(num_vms=30, num_steps=100, seed=0)
        derived = derive_bandwidth_workload(
            cpu, correlation=0.8, noise_std=0.02, seed=0
        )
        cpu_flat = np.asarray(cpu.matrix).ravel()
        bw_flat = np.asarray(derived.bandwidth_matrix).ravel()
        corr = np.corrcoef(cpu_flat, bw_flat)[0, 1]
        assert corr > 0.7

    def test_zero_correlation_flat(self):
        cpu = generate_planetlab_workload(num_vms=10, num_steps=50, seed=0)
        derived = derive_bandwidth_workload(
            cpu, correlation=0.0, base_level=0.2, noise_std=0.0, seed=0
        )
        assert np.allclose(derived.bandwidth_matrix, 0.2)

    def test_invalid_params(self):
        cpu = generate_planetlab_workload(num_vms=2, num_steps=5, seed=0)
        with pytest.raises(ConfigurationError):
            derive_bandwidth_workload(cpu, correlation=2.0)
        with pytest.raises(ConfigurationError):
            derive_bandwidth_workload(cpu, noise_std=-1.0)


class TestDatacenterBandwidth:
    def test_bandwidth_utilization_accounting(self, placed_datacenter):
        placed_datacenter.vm(0).set_bandwidth_demand(0.5)
        placed_datacenter.vm(1).set_bandwidth_demand(0.5)
        # Two VMs at 50 Mbps each on a 1000-Mbps host link = 10 %.
        assert placed_datacenter.bandwidth_demanded_utilization(
            0
        ) == pytest.approx(0.1)

    def test_bandwidth_overload_detection(self, placed_datacenter):
        placed_datacenter.vm(4).set_bandwidth_demand(1.0)  # 100 of 1000
        assert placed_datacenter.is_bandwidth_overloaded(2, threshold=0.05)
        assert not placed_datacenter.is_bandwidth_overloaded(2, threshold=0.2)

    def test_overloaded_ids_with_bandwidth(self, placed_datacenter):
        placed_datacenter.vm(4).set_bandwidth_demand(1.0)
        cpu_only = placed_datacenter.overloaded_pm_ids(0.7)
        both = placed_datacenter.overloaded_pm_ids(
            0.7, bandwidth_threshold=0.05
        )
        assert cpu_only == []
        assert both == [2]

    def test_inactive_vm_has_zero_bandwidth(self, placed_datacenter):
        placed_datacenter.vm(0).set_bandwidth_demand(0.9)
        placed_datacenter.vm(0).set_active(False)
        assert placed_datacenter.bandwidth_demanded_mbps(0) == 0.0

    def test_invalid_bandwidth_demand(self, placed_datacenter):
        with pytest.raises(ConfigurationError):
            placed_datacenter.vm(0).set_bandwidth_demand(1.5)


class TestSlaBandwidth:
    def test_bandwidth_overload_bills_downtime(self):
        dc = Datacenter([make_pm(0)], [make_vm(0)])
        dc.place(0, 0)
        dc.vm(0).set_demand(0.1)  # CPU fine
        dc.vm(0).set_bandwidth_demand(0.9)  # 90 of 1000 Mbps... too low
        accountant = SlaAccountant(
            beta=0.7, bandwidth_threshold=0.05
        )
        accountant.observe_step(dc, 300.0)
        assert accountant.downtime_fraction(0) == pytest.approx(1.0)

    def test_without_threshold_bandwidth_ignored(self):
        dc = Datacenter([make_pm(0)], [make_vm(0)])
        dc.place(0, 0)
        dc.vm(0).set_bandwidth_demand(1.0)
        accountant = SlaAccountant(beta=0.7)
        accountant.observe_step(dc, 300.0)
        assert accountant.downtime_fraction(0) == 0.0


class TestEndToEndBandwidthAware:
    def _simulation(self, bandwidth_aware: bool):
        pms = [make_pm(i) for i in range(4)]
        # VM bandwidth allocation 500 Mbps: two busy VMs saturate a
        # 1000-Mbps host link.
        vms = [
            make_vm(j, mips=800.0, ram_mb=512.0) for j in range(6)
        ]
        for vm in vms:
            vm.bandwidth_mbps = 500.0
        dc = Datacenter(pms, vms)
        for j in range(6):
            dc.place(j, j % 2)  # packed on two hosts
        cpu = ArrayWorkload(np.full((6, 30), 0.2))
        workload = BandwidthWorkload(cpu, np.full((6, 30), 0.9))
        config = SimulationConfig(
            num_steps=30,
            datacenter=DatacenterConfig(bandwidth_aware=bandwidth_aware),
        )
        return Simulation(dc, workload, config)

    def test_noop_pays_bandwidth_sla_when_aware(self):
        aware = self._simulation(True).run(NoMigrationScheduler())
        blind = self._simulation(False).run(NoMigrationScheduler())
        assert aware.metrics.total_sla_cost_usd > 0.0
        assert blind.metrics.total_sla_cost_usd == 0.0

    def test_megh_relieves_bandwidth_overloads(self):
        sim = self._simulation(True)
        megh = MeghScheduler.from_simulation(sim, seed=0)
        assert megh.bandwidth_beta is not None
        result = sim.run(megh)
        # Megh must start migrating VMs off the saturated links.
        assert result.total_migrations > 0
        # And the final configuration has fewer network-overloaded hosts
        # than the packed start (3 VMs x 450 Mbps on a 1-Gbps link).
        final_overloads = len(
            sim.datacenter.overloaded_pm_ids(0.7, 0.7)
        )
        assert final_overloads < 2
