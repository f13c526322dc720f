"""Array PABFD ≡ the per-PM scalar scan, plan for plan.

``power_aware_best_fit`` scores every feasible host of a VM in one array
pass; ``power_aware_best_fit_scalar`` (``tests/oracles/pabfd.py``) is
the historical per-PM scan it
must reproduce exactly — same destinations, same insertion order — on
the same struct-of-arrays ``Datacenter``.  Whole runs must also agree
with a scheduler that plans on the scalar PABFD and detects with the
per-host list-based detector oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.baselines.mmt.scheduler as scheduler_module
from repro.baselines.mmt.placement import (
    PlacementContext,
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
from repro.core import kern
from repro.harness.builders import build_planetlab_simulation
from repro.harness.runner import run_scheduler

from tests.oracles.mmt_detection import ShadowDetector
from tests.oracles.pabfd import power_aware_best_fit_scalar

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
    scalar_plan = power_aware_best_fit_scalar(
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

    def test_twin_sleeping_hosts_fill_around_exclusions(self):
        # Hosts 1..6 are identical and asleep, so they share one primed
        # column; each fits one VM, and the call takes the first free
        # twins in id order, skipping the excluded ones.
        pms = [_pm(0, HP_PROLIANT_G4, mips=16000.0, ram_mb=8192.0)]
        pms += [_pm(i, HP_PROLIANT_G5, mips=1000.0) for i in range(1, 7)]
        dc = Datacenter(pms, [_vm(j, ram_mb=1024.0) for j in range(3)])
        for j in range(3):
            dc.place(j, 0)
            dc.vm(j).set_demand(0.6)
        dc.sleep_idle_hosts()
        assert list(PlacementContext(dc).twins) == [1]
        plan = assert_same_plan(dc, [0, 1, 2], 0.7, excluded=[1, 3])
        assert [dest for _, dest in plan] == [2, 4, 5]
        assert assert_same_plan(dc, [0, 1, 2], 0.7) == [(0, 1), (1, 2), (2, 3)]

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


class TestTwinResolution:
    """A twin class competes under its first free member's id."""

    def _fleet(self, *ram_mb):
        # Host 0 holds the VMs; the others are empty and awake and
        # differ only in RAM (an operand), so every one of them scores
        # exactly alike, twin or not.
        pms = [_pm(0, HP_PROLIANT_G4, mips=16000.0, ram_mb=8192.0)]
        pms += [
            _pm(i, HP_PROLIANT_G5, mips=1000.0, ram_mb=ram)
            for i, ram in enumerate(ram_mb, start=1)
        ]
        dc = Datacenter(pms, [_vm(j, ram_mb=1024.0) for j in range(2)])
        for j in range(2):
            dc.place(j, 0)
            dc.vm(j).set_demand(0.3)
        return dc

    def test_excluded_first_twin_loses_tie_to_single_between(self):
        dc = self._fleet(4096.0, 8192.0, 4096.0)
        assert PlacementContext(dc).twins == {1: [1, 3]}
        # Twin 1 free: the class wins the tie under id 1.
        assert assert_same_plan(dc, [0], 0.7) == [(0, 1)]
        # Twin 1 excluded: the class resolves to 3 and the single
        # host 2 wins the exact tie.
        assert assert_same_plan(dc, [0], 0.7, excluded=[1]) == [(0, 2)]
        assert assert_same_plan(dc, [0], 0.7, excluded=[1, 2]) == [(0, 3)]

    def test_tied_twin_classes_compare_their_free_members(self):
        # Classes {1, 3} and {2, 4}: with both first members excluded
        # the first class's host 3 beats the second class's host 4,
        # although the second class's key 2 is below 3.
        dc = self._fleet(4096.0, 8192.0, 4096.0, 8192.0)
        assert PlacementContext(dc).twins == {1: [1, 3], 2: [2, 4]}
        assert assert_same_plan(dc, [0], 0.7, excluded=[1, 2]) == [(0, 3)]
        assert assert_same_plan(dc, [0], 0.7, excluded=[1]) == [(0, 2)]

    def test_twin_member_committed_earlier_in_the_call(self):
        # Each twin fits one VM's RAM: the second VM skips the first
        # twin, now committed and full, for the next free member.
        pms = [_pm(0, HP_PROLIANT_G4, mips=16000.0, ram_mb=8192.0)]
        pms += [
            _pm(i, HP_PROLIANT_G5, mips=1000.0, ram_mb=1024.0)
            for i in range(1, 4)
        ]
        dc = Datacenter(pms, [_vm(j, ram_mb=1024.0) for j in range(3)])
        for j in range(3):
            dc.place(j, 0)
            dc.vm(j).set_demand(0.3)
        assert PlacementContext(dc).twins == {1: [1, 2, 3]}
        assert assert_same_plan(dc, [0, 1, 2], 0.7) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]
        assert assert_same_plan(dc, [0, 1], 0.7, excluded=[2]) == [
            (0, 1),
            (1, 3),
        ]

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 1.0])
    def test_committed_twin_rescored_against_the_next_member(self, threshold):
        # With room for both VMs the committed twin is re-scored with
        # its pending load and competes with the next free twin and the
        # single host between them.
        dc = self._fleet(4096.0, 8192.0, 4096.0)
        assert_same_plan(dc, [0, 1], threshold)
        assert_same_plan(dc, [0, 1], threshold, excluded=[1])
        assert_same_plan(dc, [0, 1], threshold, excluded=[2])


def _scalar_pabfd(datacenter, vm_ids, threshold, excluded_hosts=(), context=None):
    excluded = np.asarray(excluded_hosts)
    if excluded.dtype == bool:
        excluded = np.flatnonzero(excluded)
    return power_aware_best_fit_scalar(
        datacenter, vm_ids, threshold, excluded.tolist()
    )


_HAS_COMPILER = kern._find_compiler() is not None

#: The three MMT planners: the kernel library's compiled pass (skipped
#: without a compiler), the eager PlacementContext path
#: (``REPRO_KERNEL=off``) and the oracle (the eager path on the per-PM
#: PABFD scan and the per-host list-based detector).
PLANNERS = (["compiled"] if _HAS_COMPILER else []) + ["eager", "oracle"]


def _scheduler(planner, patch, detector="THR", **kwargs):
    """An MMTScheduler planning by ``planner``; the oracle's patches
    go on ``patch`` (a MonkeyPatch), which the caller undoes."""
    patch.setenv("REPRO_KERNEL", "c" if planner == "compiled" else "off")
    scheduler = MMTScheduler(detector, **kwargs)
    assert (scheduler._compiled is not None) == (planner == "compiled")
    if planner == "oracle":
        patch.setattr(scheduler_module, "power_aware_best_fit", _scalar_pabfd)
        scheduler.detector = ShadowDetector(scheduler.detector)
    return scheduler


def _decisions(detector, planner, **size):
    """Per-step migration lists and the result of one PlanetLab MMT run
    planned by ``planner`` (see :data:`PLANNERS`)."""
    size = {"num_pms": 16, "num_vms": 24, "num_steps": 40, **size}
    simulation = build_planetlab_simulation(seed=3, **size)
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        scheduler = _scheduler(planner, patch, detector)
        decide = scheduler.decide

        def recording(observation):
            migrations = decide(observation)
            steps.append([(m.vm_id, m.dest_pm_id) for m in migrations])
            return migrations

        scheduler.decide = recording
        result = run_scheduler(simulation, scheduler)
    if planner == "compiled":
        assert scheduler._compiled._supported, "the compiled pass must run"
    return steps, result


def _without_timings(result):
    payload = result.to_dict()
    for step in payload.get("steps", []):
        step.pop("scheduler_seconds", None)
    return payload


def _assert_runs_identical(detector, **size):
    """Every planner plans the same migrations, step for step, and the
    runs give the same results; returns the migration lists."""
    runs = {planner: _decisions(detector, planner, **size) for planner in PLANNERS}
    steps, result = runs["oracle"]
    assert any(steps), "the run must plan some migrations"
    for planner, (other_steps, other_result) in runs.items():
        assert other_steps == steps, planner
        assert _without_timings(other_result) == _without_timings(result)
    return steps


class TestRunLevelEquivalence:
    @pytest.mark.parametrize("detector", ["THR", "IQR", "MAD", "LR", "LRR"])
    def test_migration_lists_identical(self, detector):
        _assert_runs_identical(detector)

    def test_thr_mostly_sleeping_fleet_results_identical(self, monkeypatch):
        # 24 VMs first-fit onto 40 hosts: most hosts sleep empty, so
        # twin classes hold most of the fleet and take placements.
        twin_destinations = []
        power_aware_best_fit = scheduler_module.power_aware_best_fit

        def recording(
            datacenter, vm_ids, threshold, excluded_hosts=(), context=None
        ):
            plan = power_aware_best_fit(
                datacenter, vm_ids, threshold, excluded_hosts, context
            )
            members = {h for m in context.twins.values() for h in m}
            twin_destinations.extend(h for h in plan.values() if h in members)
            return plan

        size = {"num_pms": 40, "num_vms": 24}
        monkeypatch.setattr(
            scheduler_module, "power_aware_best_fit", recording
        )
        eager_steps, _ = _decisions("THR", "eager", **size)
        monkeypatch.undo()
        assert twin_destinations, "twins must take some placements"
        assert _assert_runs_identical("THR", **size) == eager_steps

    def test_lrr_quarter_paper_fleet_results_identical(self):
        # The perfbench ``mmt-planetlab`` fleet, past the detector window.
        _assert_runs_identical("LRR", num_pms=200, num_vms=263, num_steps=24)

    @pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
    @pytest.mark.parametrize("detector", ["THR", "LRR"])
    def test_quarter_paper_fleet_compiled_matches_eager(self, detector):
        # The whole ``mmt-planetlab`` horizon, compiled against eager.
        size = {"num_pms": 200, "num_vms": 263, "num_steps": 40}
        compiled_steps, compiled = _decisions(detector, "compiled", **size)
        eager_steps, eager = _decisions(detector, "eager", **size)
        assert sum(map(len, compiled_steps)) > 1000
        assert compiled_steps == eager_steps
        assert _without_timings(compiled) == _without_timings(eager)


class _Monitor:
    """A monitor whose history is one row: the hosts' utilization now."""

    def __init__(self, datacenter, flagged=()):
        self.row = datacenter.arrays.pm_demand_utilization().copy()
        self.row[list(flagged)] = 1.0

    def host_matrix(self):
        return self.row[None, :]


def _plans(datacenter, flagged=(), **kwargs):
    """One THR-MMT ``decide`` on ``datacenter`` by every planner: all
    must plan the same migrations.  THR flags the hosts above 70 % now
    and those in ``flagged``.  Returns the plan and the compiled
    scheduler (``None`` without a compiler)."""
    observation = SimpleNamespace(
        datacenter=datacenter, monitor=_Monitor(datacenter, flagged)
    )
    plans, compiled = {}, None
    for planner in PLANNERS:
        with pytest.MonkeyPatch.context() as patch:
            scheduler = _scheduler(planner, patch, **kwargs)
            plans[planner] = [
                (m.vm_id, m.dest_pm_id) for m in scheduler.decide(observation)
            ]
        if planner == "compiled":
            compiled = scheduler
    for planner, plan in plans.items():
        assert plan == plans["oracle"], planner
    return plans["oracle"], compiled


def _fleet(pm_specs, vm_specs):
    """``pm_specs``: (model, mips, ram); ``vm_specs``: (host or None,
    demand, mips, ram)."""
    datacenter = Datacenter(
        [_pm(i, *spec) for i, spec in enumerate(pm_specs)],
        [
            _vm(j, mips=mips, ram_mb=ram)
            for j, (_, _, mips, ram) in enumerate(vm_specs)
        ],
    )
    for j, (host, demand, _, _) in enumerate(vm_specs):
        if host is not None:
            datacenter.place(j, host)
        datacenter.vm(j).set_demand(demand)
    return datacenter


class _CubicPower:
    """A power model the kernel has no form of."""

    max_power = 120.0

    def power(self, utilization):
        u = min(1.0, max(0.0, utilization))
        return 80.0 + 40.0 * (u * u * u)

    def power_batch(self, utilizations):
        u = np.minimum(1.0, np.maximum(0.0, utilizations))
        return 80.0 + 40.0 * (u * u * u)


#: A linear model flatter than both SPEC rows: 1 W per 10 %.
FLAT = LinearPowerModel(idle_watts=90.0, peak_watts=100.0)


class TestCompiledPass:
    """The compiled pass against the eager path and the oracle, one
    ``decide`` at a time, on fleets built for each rule."""

    @settings(max_examples=150, deadline=None)
    @given(
        datacenter=fleets(),
        flagged=st.lists(st.integers(0, 7), max_size=3),
        placement=st.sampled_from((0.5, 0.7, 1.0)),
        underload=st.sampled_from((0.1, 0.25, 0.5)),
    )
    def test_random_fleets(self, datacenter, flagged, placement, underload):
        flagged = [h for h in flagged if h < datacenter.num_pms]
        _plans(
            datacenter,
            flagged,
            placement_threshold=placement,
            underload_threshold=underload,
        )

    def test_mixed_spec_and_linear_fleet(self):
        # The flat linear host 2 adds the least power for the relief VM
        # and for host 1's VM; host 2's own VM then goes to the SPEC
        # host 3, and host 3's VM fits only on the evacuated hosts.
        datacenter = _fleet(
            [
                (HP_PROLIANT_G4, 2000.0, 4096.0),
                (HP_PROLIANT_G5, 4000.0, 4096.0),
                (FLAT, 4000.0, 4096.0),
                (HP_PROLIANT_G4, 4000.0, 4096.0),
            ],
            [
                (0, 1.0, 1000.0, 512.0),
                (0, 0.6, 1000.0, 512.0),
                (1, 0.2, 1000.0, 512.0),
                (2, 0.5, 1000.0, 512.0),
                (3, 0.9, 1000.0, 512.0),
            ],
        )
        plan, compiled = _plans(datacenter)
        assert plan == [(0, 2), (2, 2), (3, 3)]
        assert compiled is None or compiled._compiled._supported

    def test_unknown_power_model_plans_eagerly(self):
        datacenter = _fleet(
            [(_CubicPower(), 2000.0, 4096.0)]
            + [(HP_PROLIANT_G5, 4000.0, 4096.0)] * 2,
            [
                (0, 1.0, 1000.0, 512.0),
                (0, 0.8, 1000.0, 512.0),
                (1, 0.1, 1000.0, 512.0),
            ],
        )
        plan, compiled = _plans(datacenter)
        assert plan == [(0, 2), (2, 2)]
        if compiled is not None:
            assert not compiled._compiled._supported

    def test_mostly_sleeping_fleet(self):
        # Two relief VMs stack onto the awake light host 1; host 1's own
        # VM then has only sleepers left, and the linear ones wake for
        # less (P(0) = 90 W), the lowest id of them winning the tie.
        specs = [(HP_PROLIANT_G4, 4000.0, 4096.0)] * 2
        specs += [(HP_PROLIANT_G5, 2000.0, 2048.0), (LINEAR, 2000.0, 2048.0)] * 3
        datacenter = _fleet(
            specs,
            [(0, 1.0, 1000.0, 1024.0)] * 4 + [(1, 0.3, 1000.0, 512.0)],
        )
        datacenter.sleep_idle_hosts()
        assert datacenter.arrays.pm_asleep.tolist() == [False] * 2 + [True] * 6
        plan, _ = _plans(datacenter)
        assert plan == [(0, 1), (1, 1), (4, 3)]

    def test_consolidation_host_failing_halfway_is_dropped(self):
        # Host 1 is the first consolidation source: VMs 2 and 1 fit on
        # host 2, but VM 3's 5000 MB fits nowhere, so host 1's plan is
        # dropped, its pending load released and host 1 stays a
        # destination.  Host 2's VM then packs onto host 1.
        datacenter = _fleet(
            [
                (HP_PROLIANT_G4, 4000.0, 4096.0),
                (HP_PROLIANT_G4, 4000.0, 8192.0),
                (HP_PROLIANT_G4, 4000.0, 4096.0),
                (HP_PROLIANT_G4, 4000.0, 4096.0),
            ],
            [
                (0, 0.5, 4000.0, 512.0),
                (1, 0.1, 1000.0, 512.0),
                (1, 0.2, 1000.0, 256.0),
                (1, 0.05, 1000.0, 5000.0),
                (2, 0.4, 1000.0, 256.0),
                (3, 0.5, 4000.0, 512.0),
            ],
        )
        plan, _ = _plans(datacenter)
        assert plan == [(4, 1)]

    def test_empty_relief_set(self):
        # Nothing is overloaded, so only consolidation plans: the empty
        # awake host 2 adds less power than the busier host 1.
        datacenter = _fleet(
            [(HP_PROLIANT_G5, 4000.0, 4096.0)] * 3,
            [(0, 0.2, 1000.0, 512.0), (1, 0.9, 2000.0, 512.0)],
        )
        plan, _ = _plans(datacenter)
        assert plan == [(0, 2)]

    def test_flagged_empty_host_is_not_excluded_from_relief(self):
        # The detector flags the empty host 2 too, but relief excludes
        # only the occupied overloaded hosts: host 2 takes both VMs.
        datacenter = _fleet(
            [
                (HP_PROLIANT_G4, 2000.0, 4096.0),
                (LINEAR, 1000.0, 4096.0),
                (HP_PROLIANT_G4, 4000.0, 4096.0),
            ],
            [
                (0, 1.0, 1000.0, 512.0),
                (0, 0.9, 1000.0, 512.0),
                (1, 0.9, 1000.0, 512.0),
            ],
        )
        plan, _ = _plans(datacenter, flagged=[2], consolidate=False)
        assert plan == [(0, 2), (2, 2)]

    def test_exact_score_ties_go_to_the_lowest_id(self):
        # Hosts 1..4 are identical and idle, so each relief VM scores
        # them alike to the last bit; each holds one VM's RAM, so the
        # two VMs take the two lowest ids.
        datacenter = _fleet(
            [(HP_PROLIANT_G4, 2000.0, 4096.0)]
            + [(HP_PROLIANT_G5, 4000.0, 1024.0)] * 4,
            [(0, 1.0, 500.0, 1024.0)] * 4,
        )
        plan, _ = _plans(datacenter)
        assert plan == [(0, 1), (1, 2)]

    def test_heterogeneous_vm_ram(self):
        # Relief evicts VMs 3, 2 and 1 (equal MIPS, growing RAM) from
        # host 0.  Host 1, at 62 %, adds less power per VM than the idle
        # host 2, but its 800 free MB hold only VMs 3 and 2: the pending
        # 768 MB turn VM 1 away to host 2.
        datacenter = _fleet(
            [
                (HP_PROLIANT_G4, 1000.0, 8192.0),
                (HP_PROLIANT_G4, 4000.0, 2048.0),
                (HP_PROLIANT_G4, 4000.0, 4096.0),
            ],
            [
                (0, 1.0, 690.0, 3000.0),
                (0, 1.0, 40.0, 1024.0),
                (0, 1.0, 40.0, 512.0),
                (0, 1.0, 40.0, 256.0),
                (1, 1.0, 2480.0, 1248.0),
            ],
        )
        plan, _ = _plans(datacenter)
        assert plan == [(3, 1), (2, 1), (1, 2)]
