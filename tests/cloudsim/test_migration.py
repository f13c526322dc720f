"""Unit tests for the live-migration engine."""

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.migration import Migration, MigrationEngine
from repro.errors import MigrationError, UnknownEntityError

from tests.conftest import make_pm, make_vm
from tests.oracles.reference_datacenter import ReferenceDatacenter


@pytest.fixture
def engine_setup():
    pms = [make_pm(i) for i in range(3)]
    vms = [make_vm(j) for j in range(3)]
    dc = Datacenter(pms, vms)
    for vm_id in range(3):
        dc.place(vm_id, 0)
    engine = MigrationEngine(dc, overhead_fraction=0.10, alpha=0.30)
    return dc, engine


class TestStart:
    def test_successful_start_moves_placement(self, engine_setup):
        dc, engine = engine_setup
        outcome = engine.start([Migration(vm_id=0, dest_pm_id=1)])
        assert outcome.started == (Migration(0, 1),)
        assert dc.host_of(0) == 1
        assert engine.is_migrating(0)

    def test_migration_to_current_host_rejected(self, engine_setup):
        dc, engine = engine_setup
        outcome = engine.start([Migration(vm_id=0, dest_pm_id=0)])
        assert outcome.rejected == (Migration(0, 0),)
        assert not engine.is_migrating(0)

    def test_double_migration_rejected(self, engine_setup):
        dc, engine = engine_setup
        engine.start([Migration(0, 1)])
        outcome = engine.start([Migration(0, 2)])
        assert outcome.rejected == (Migration(0, 2),)
        assert dc.host_of(0) == 1

    def test_capacity_rejection(self):
        pms = [make_pm(0), make_pm(1, ram_mb=512.0)]
        vms = [make_vm(0, ram_mb=1024.0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        engine = MigrationEngine(dc)
        outcome = engine.start([Migration(0, 1)])
        assert outcome.rejected == (Migration(0, 1),)
        assert dc.host_of(0) == 0

    def test_total_migration_counter(self, engine_setup):
        dc, engine = engine_setup
        engine.start([Migration(0, 1), Migration(1, 2)])
        assert engine.total_migrations == 2

    def test_invalid_parameters(self, engine_setup):
        dc, _ = engine_setup
        with pytest.raises(MigrationError):
            MigrationEngine(dc, overhead_fraction=1.0)
        with pytest.raises(MigrationError):
            MigrationEngine(dc, alpha=1.5)


class TestRefusals:
    """Refused moves raise nothing and change nothing, on the SoA
    datacenter and on the reference oracle alike."""

    @pytest.mark.parametrize("backend", [Datacenter, ReferenceDatacenter])
    def test_mixed_batch(self, backend):
        # Four 1024-MB VMs on host 0; host 1 has room for one of them.
        pms = [make_pm(0), make_pm(1, ram_mb=1536.0), make_pm(2)]
        dc = backend(pms, [make_vm(j) for j in range(4)])
        for vm_id in range(4):
            dc.place(vm_id, 0)
        engine = MigrationEngine(dc)
        assert engine.start([Migration(3, 2)]).started == (Migration(3, 2),)
        batch = [
            Migration(0, 1),  # fits
            Migration(1, 1),  # host 1 is full after the first move
            Migration(3, 0),  # VM 3 is in flight
            Migration(2, 0),  # no-op: VM 2 is on host 0
        ]
        outcome = engine.start(batch)
        assert outcome.started == (Migration(0, 1),)
        assert outcome.rejected == tuple(batch[1:])
        assert dc.placement() == {0: 1, 1: 0, 2: 0, 3: 2}
        assert [dc.ram_free_mb(pm_id) for pm_id in range(3)] == [
            2048.0,
            512.0,
            3072.0,
        ]
        assert engine.in_flight_vm_ids == {0, 3}
        assert engine.total_migrations == 2

    @pytest.mark.parametrize("backend", [Datacenter, ReferenceDatacenter])
    @pytest.mark.parametrize("dest", [3, -1])
    def test_unknown_destination_raises(self, backend, dest):
        dc = backend([make_pm(i) for i in range(3)], [make_vm(0)])
        dc.place(0, 0)
        engine = MigrationEngine(dc)
        with pytest.raises(UnknownEntityError):
            engine.start([Migration(0, dest)])
        assert dc.placement() == {0: 0}
        assert not engine.is_migrating(0)

    def test_started_move_costs_one_ram_rebuild(self, engine_setup):
        dc, engine = engine_setup
        dc.ram_free_mb(0)  # the RAM aggregate is now clean
        rebuilds = dc.arrays._ram_rebuilds
        outcome = engine.start(
            [Migration(0, 1), Migration(0, 2), Migration(1, 2)]
        )
        dc.ram_free_mb(0)
        assert len(outcome.started) == 2
        assert dc.arrays._ram_rebuilds - rebuilds == 2


class TestAdvance:
    def test_completion_within_one_interval(self, engine_setup):
        dc, engine = engine_setup
        # 1024 MB over the 1000-Mbps host link: 8.192 s < 300 s.
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        outcome = engine.advance(300.0)
        assert outcome.completed == (0,)
        assert not engine.is_migrating(0)

    def test_long_migration_spans_intervals(self):
        pms = [make_pm(0, ram_mb=8192.0), make_pm(1, ram_mb=8192.0)]
        pms[0].bandwidth_mbps = 10.0  # 4096 MB over 10 Mbps = 3276.8 s
        pms[1].bandwidth_mbps = 10.0
        vms = [make_vm(0, ram_mb=4096.0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        engine = MigrationEngine(dc)
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        outcome = engine.advance(300.0)
        assert outcome.completed == ()
        assert engine.is_migrating(0)

    def test_overhead_downtime_charged(self, engine_setup):
        dc, engine = engine_setup
        dc.vm(0).set_demand(0.5)
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        outcome = engine.advance(300.0)
        # Transfer lasts 8.192 s; 10 % overhead downtime = 0.8192 s.
        assert outcome.downtime_seconds[0] == pytest.approx(0.8192)

    def test_alpha_rule_full_window_downtime(self, engine_setup):
        dc, engine = engine_setup
        dc.vm(0).set_demand(0.5)
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        # Simulate severe degradation on the destination.
        dc.vm(0).delivered_utilization = 0.05  # below alpha * demand = 0.15
        outcome = engine.advance(300.0)
        assert outcome.downtime_seconds[0] == pytest.approx(8.192)

    def test_idle_vm_no_alpha_downtime(self, engine_setup):
        dc, engine = engine_setup
        dc.vm(0).set_demand(0.0)
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        outcome = engine.advance(300.0)
        # Zero demand: only the overhead term applies.
        assert outcome.downtime_seconds[0] == pytest.approx(0.8192)

    def test_advance_requires_positive_interval(self, engine_setup):
        _, engine = engine_setup
        with pytest.raises(MigrationError):
            engine.advance(0.0)

    def test_in_flight_cpu_overhead(self, engine_setup):
        dc, engine = engine_setup
        dc.vm(0).set_demand(0.5)
        engine.start([Migration(0, 1)])
        dc.share_cpu()
        engine.advance(300.0)
        # share_cpu delivered 0.5, engine reduced it by 10 %.
        assert dc.vm(0).delivered_utilization == pytest.approx(0.45)
