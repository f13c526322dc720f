"""Array PABFD ≡ the per-PM scalar scan, plan for plan.

``power_aware_best_fit`` scores every feasible host of a VM in one array
pass; ``_power_aware_best_fit_scalar`` is the historical per-PM scan it
must reproduce exactly — same destinations, same insertion order — on
the same struct-of-arrays ``Datacenter``.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.baselines.mmt.scheduler as scheduler_module
from repro.baselines.mmt.placement import (
    PlacementContext,
    _power_aware_best_fit_scalar,
    power_aware_best_fit,
)
from repro.baselines.mmt.scheduler import MMTScheduler
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.pm import PhysicalMachine
from repro.cloudsim.power import (
    HP_PROLIANT_G4,
    HP_PROLIANT_G5,
    LinearPowerModel,
)
from repro.cloudsim.vm import VirtualMachine
from repro.harness.builders import build_planetlab_simulation
from repro.harness.runner import run_scheduler

LINEAR = LinearPowerModel(idle_watts=90.0, peak_watts=130.0)
MODELS = (HP_PROLIANT_G4, HP_PROLIANT_G5, LINEAR)


def _pm(pm_id, model, mips=4000.0, ram_mb=4096.0):
    return PhysicalMachine(
        pm_id=pm_id,
        mips=mips,
        ram_mb=ram_mb,
        bandwidth_mbps=1000.0,
        power_model=model,
    )


def _vm(vm_id, mips=1000.0, ram_mb=512.0):
    return VirtualMachine(
        vm_id=vm_id, mips=mips, ram_mb=ram_mb, bandwidth_mbps=100.0
    )


def assert_same_plan(datacenter, vm_ids, threshold, excluded=()):
    """Both implementations agree; returns the plan as ordered items."""
    context = PlacementContext(datacenter)
    array_plan = power_aware_best_fit(
        datacenter,
        vm_ids,
        threshold=threshold,
        excluded_hosts=excluded,
        context=context,
    )
    scalar_plan = _power_aware_best_fit_scalar(
        datacenter, vm_ids, threshold, excluded
    )
    assert list(array_plan.items()) == list(scalar_plan.items())
    # Without a context the call builds its own and agrees too.
    fresh = power_aware_best_fit(
        datacenter, vm_ids, threshold=threshold, excluded_hosts=excluded
    )
    assert list(fresh.items()) == list(scalar_plan.items())
    return list(array_plan.items())


@st.composite
def fleets(draw):
    """A mixed-model fleet with placed, unplaced and sleeping entities.

    Capacities and demands come from small grids so identical hosts —
    and therefore exact power-increase ties — are common, and demands
    up to 1.0 on stacked hosts push some hosts to or past 100 %.
    """
    num_pms = draw(st.integers(1, 8))
    num_vms = draw(st.integers(1, 14))
    pms = [
        _pm(
            i,
            draw(st.sampled_from(MODELS)),
            mips=draw(st.sampled_from((1000.0, 2000.0, 4000.0))),
            ram_mb=draw(st.sampled_from((2048.0, 4096.0))),
        )
        for i in range(num_pms)
    ]
    vms = [
        _vm(
            j,
            mips=draw(st.sampled_from((500.0, 1000.0, 2000.0))),
            ram_mb=draw(st.sampled_from((256.0, 512.0, 1024.0))),
        )
        for j in range(num_vms)
    ]
    datacenter = Datacenter(pms, vms)
    for j in range(num_vms):
        host = draw(st.none() | st.integers(0, num_pms - 1))
        if host is not None and datacenter.fits(j, host):
            datacenter.place(j, host)
        demand = draw(
            st.sampled_from((0.0, 0.25, 0.5, 1.0))
            | st.floats(0.0, 1.0, allow_nan=False)
        )
        datacenter.vm(j).set_demand(demand)
    if draw(st.booleans()):
        datacenter.sleep_idle_hosts()
    return datacenter


class TestArrayMatchesScalar:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), datacenter=fleets())
    def test_plans_identical(self, data, datacenter):
        num_pms, num_vms = datacenter.num_pms, datacenter.num_vms
        vm_ids = data.draw(
            st.lists(
                st.integers(0, num_vms - 1), min_size=1, unique=True
            )
        )
        excluded = data.draw(
            st.lists(st.integers(0, num_pms - 1), unique=True)
        )
        threshold = data.draw(st.sampled_from((0.5, 0.7, 1.0, 1.5)))
        assert_same_plan(datacenter, vm_ids, threshold, excluded)

    def test_sleeping_host_pays_wake_cost(self):
        dc = Datacenter(
            [_pm(i, HP_PROLIANT_G4) for i in range(3)],
            [_vm(0), _vm(1)],
        )
        dc.place(0, 0)
        dc.place(1, 2)
        dc.pm(1).sleep()
        dc.vm(0).set_demand(0.5)
        assert assert_same_plan(dc, [0], 0.7) == [(0, 2)]

    def test_exact_tie_first_id_wins(self):
        # Hosts 1..3 are identical and idle: the same increase to the
        # last bit, so the lowest id must win.
        dc = Datacenter(
            [_pm(i, HP_PROLIANT_G5) for i in range(4)], [_vm(0)]
        )
        dc.place(0, 0)
        dc.vm(0).set_demand(0.5)
        assert assert_same_plan(dc, [0], 0.7) == [(0, 1)]

    def test_saturated_hosts_tie_at_zero_increase(self):
        # Above 100 % demand the curve is flat: the increase is exactly
        # zero on both saturated hosts, and the first one wins.
        dc = Datacenter(
            [_pm(i, HP_PROLIANT_G4, mips=1000.0) for i in range(3)],
            [_vm(j, mips=1000.0, ram_mb=256.0) for j in range(5)],
        )
        dc.place(0, 0)
        for j, host in ((1, 1), (2, 1), (3, 2), (4, 2)):
            dc.place(j, host)
            dc.vm(j).set_demand(1.0)
        dc.vm(0).set_demand(0.5)
        assert dc.demanded_utilization(1) >= 1.0
        assert assert_same_plan(dc, [0], 3.0) == [(0, 1)]

    def test_exclusions_and_no_feasible_host(self):
        dc = Datacenter(
            [_pm(i, LINEAR) for i in range(3)], [_vm(0), _vm(1)]
        )
        dc.place(0, 0)
        dc.place(1, 0)
        dc.vm(0).set_demand(1.0)
        dc.vm(1).set_demand(0.5)
        assert assert_same_plan(dc, [0, 1], 0.7, excluded=[1, 2]) == []
        assert assert_same_plan(dc, [0, 1], 0.7, excluded=[1]) == [
            (0, 2),
            (1, 2),
        ]

    def test_several_vms_stack_onto_one_host(self):
        # One roomy host beside small ones: every VM lands on host 1
        # and each placement re-scores it with the pending load.
        pms = [_pm(0, HP_PROLIANT_G4), _pm(1, HP_PROLIANT_G4, mips=16000.0)]
        pms += [_pm(i, HP_PROLIANT_G5, mips=500.0) for i in range(2, 4)]
        dc = Datacenter(pms, [_vm(j, ram_mb=256.0) for j in range(4)])
        for j in range(4):
            dc.place(j, 0)
            dc.vm(j).set_demand(0.8)
        plan = assert_same_plan(dc, [0, 1, 2, 3], 0.7)
        assert [dest for _, dest in plan] == [1, 1, 1, 1]

    def test_pending_load_summed_like_the_scan(self):
        # The scan tests ``(0.1 + (0.2 + 0.17)) + 0.1`` = 0.57 against a
        # 0.57-MIPS budget; accumulating ``((0.1 + 0.2) + 0.17) + 0.1``
        # rounds one ulp above it and would reject the third VM.
        dc = Datacenter(
            [_pm(0, LINEAR), _pm(1, LINEAR, mips=0.57)],
            [_vm(j, mips=1.0, ram_mb=256.0) for j in range(4)],
        )
        for j, demand in enumerate((0.1, 0.2, 0.17, 0.1)):
            dc.place(j, 0 if j else 1)
            dc.vm(j).set_demand(demand)
        plan = assert_same_plan(dc, [1, 2, 3], 1.0)
        assert plan == [(1, 1), (2, 1), (3, 1)]


def _scalar_pabfd(datacenter, vm_ids, threshold, excluded_hosts=(), context=None):
    return _power_aware_best_fit_scalar(
        datacenter, vm_ids, threshold, excluded_hosts
    )


def _decisions(detector, monkeypatch=None):
    """Per-step migration lists of one small PlanetLab MMT run."""
    simulation = build_planetlab_simulation(
        num_pms=16, num_vms=24, num_steps=40, seed=3
    )
    scheduler = MMTScheduler(detector)
    decide = scheduler.decide
    steps = []

    def recording(observation):
        migrations = decide(observation)
        steps.append([(m.vm_id, m.dest_pm_id) for m in migrations])
        return migrations

    scheduler.decide = recording
    if monkeypatch is not None:
        monkeypatch.setattr(
            scheduler_module, "power_aware_best_fit", _scalar_pabfd
        )
    result = run_scheduler(simulation, scheduler)
    return steps, result


class TestRunLevelEquivalence:
    @pytest.mark.parametrize("detector", ["THR", "IQR", "MAD", "LR", "LRR"])
    def test_migration_lists_identical(self, detector, monkeypatch):
        array_steps, array_result = _decisions(detector)
        scalar_steps, scalar_result = _decisions(detector, monkeypatch)
        assert any(array_steps), "the run must plan some migrations"
        assert array_steps == scalar_steps
        assert array_result.total_cost_usd == scalar_result.total_cost_usd
        assert array_result.total_migrations == scalar_result.total_migrations
