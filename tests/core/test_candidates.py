"""Differential oracle for the array-native candidate pipeline.

The vectorized :class:`~repro.core.candidates.CandidateIndex` must
produce the *same ordered candidate lists element for element* as the
scalar generator (``tests/oracles/megh_candidates.py``) — on
randomized fleets covering churned/retired slots and the candidate
caps on and off — and routing ``decide()``
through either generator must leave whole-run decision traces
identical.  Every differential check runs both backends of the index:
the compiled plan (``megh_plan_candidates``) and the eager NumPy path,
which must agree array for array.  Also pins exactly one
overload-predicate evaluation per ``decide()``.
"""

import functools

import numpy as np
import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.soa import DatacenterArrays
from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.core import kern
from repro.core.candidates import CandidateIndex
from repro.mdp.interfaces import Observation

from tests.conftest import make_pm, make_vm
from tests.core.test_agent_internals import build_observation
from tests.oracles.megh_candidates import candidate_actions, scalar_plan
from tests.oracles.pipeline import DequeMonitor
from tests.oracles.pipeline import observe_state as oracle_observe_state
from tests.oracles.reference_datacenter import ReferenceDatacenter


#: The plan arrays two backends must agree on, array for array.
PLAN_FIELDS = (
    "vm_ids", "sources", "mandatory", "dest_pm", "offsets", "action_indices"
)


@functools.lru_cache(maxsize=None)
def compiled_kernel():
    """The compiled backend, or ``None`` where no compiler exists."""
    try:
        return kern.CKernel()
    except kern.KernelUnavailableError:
        return None


def backend_indexes(beta, config):
    """Fresh indexes, one per backend: eager, then compiled if present."""
    kernels = [None] + [k for k in (compiled_kernel(),) if k is not None]
    return [
        CandidateIndex(beta=beta, config=config, kernel=kernel)
        for kernel in kernels
    ]


def assert_plans_equal(plan, reference):
    """Array for array: same dtype, shape and elements."""
    for name in PLAN_FIELDS:
        got, want = getattr(plan, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert plan.num_pms == reference.num_pms


def random_datacenter(
    seed, num_pms=8, num_vms=20, churn=False, demand_low=0.0, ram_choices=None
):
    """A randomized placed fleet; ``churn`` retires some slots.

    ``demand_low`` bounds the uniform VM demand from below (raise it for
    overloaded hosts); ``ram_choices`` draws each VM's RAM from a set (a VM that
    fits nowhere it is drawn to stays unplaced).
    """
    rng = np.random.default_rng(seed)
    pms = [make_pm(i) for i in range(num_pms)]
    rams = (
        [256.0] * num_vms
        if ram_choices is None
        else [float(rng.choice(ram_choices)) for _ in range(num_vms)]
    )
    vms = [
        make_vm(j, mips=1000.0, ram_mb=rams[j]) for j in range(num_vms)
    ]
    dc = Datacenter(pms, vms)
    for j in range(num_vms):
        pm_id = int(rng.integers(0, num_pms))
        if dc.ram_free_mb(pm_id) >= rams[j]:
            dc.place(j, pm_id)
        dc.vm(j).set_demand(float(rng.uniform(demand_low, 1.0)))
    if churn:
        # Service-style retirement: remove, deactivate, placeholder
        # capacities on the object, cleared slot in the arrays — the
        # state where object and array views deliberately diverge.
        for j in rng.choice(num_vms, size=num_vms // 4, replace=False):
            slot = int(j)
            dc.remove(slot)
            dc.vm(slot).set_active(False)
            dc.vm(slot).mips = 1.0
            dc.vm(slot).ram_mb = 1.0
            dc.vm(slot).bandwidth_mbps = 1.0
            dc.arrays.clear_vm_slot(slot)
    return dc


def assert_plan_matches_oracle(agent, dc):
    """Vectorized plan == scalar lists, element for element, and the
    compiled and eager backends agree array for array."""
    observation = build_observation(dc)
    oracle = candidate_actions(agent, observation)
    plan = agent.candidate_index.plan(dc)
    assert plan.to_action_lists() == oracle
    for index in backend_indexes(agent.beta, agent.config):
        assert_plans_equal(index.plan(dc), plan)
    # Structural invariants of the flat encoding.
    num_pms = dc.num_pms
    assert plan.num_rows == len(oracle)
    assert plan.num_actions == sum(len(actions) for actions in oracle)
    for r in range(plan.num_rows):
        assert int(plan.sources[r]) == dc.host_of(int(plan.vm_ids[r]))
    np.testing.assert_array_equal(
        plan.action_indices, plan.vm_ids.repeat(np.diff(plan.offsets)) * num_pms + plan.dest_pm
    )


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_fleets(self, seed):
        dc = random_datacenter(seed)
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=seed)
        assert_plan_matches_oracle(agent, dc)

    @pytest.mark.parametrize("seed", range(4))
    def test_churned_fleets(self, seed):
        # Retired slots: object attrs hold placeholders (ram_mb=1.0)
        # while the arrays hold zeros — candidates must come only from
        # placed+active VMs, where the views agree.
        dc = random_datacenter(seed, churn=True)
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=seed)
        assert_plan_matches_oracle(agent, dc)

    @pytest.mark.parametrize(
        "config",
        [
            MeghConfig(max_candidate_vms=0, candidate_destinations=0),
            MeghConfig(max_candidate_vms=5, candidate_destinations=2),
            MeghConfig(consolidate_underloaded=False),
            MeghConfig(underload_threshold=0.6),
            MeghConfig(destination_headroom=1.0),
        ],
        ids=["caps-off", "caps-tight", "no-consolidation",
             "wide-underload", "full-headroom"],
    )
    def test_config_axes(self, config):
        for seed in range(3):
            dc = random_datacenter(seed + 200)
            agent = MeghScheduler(
                num_vms=20, num_pms=8, config=config, seed=seed
            )
            assert_plan_matches_oracle(agent, dc)

    def test_empty_fleet_plan(self):
        dc = random_datacenter(0)
        for j in range(20):
            dc.remove(j)
            dc.vm(j).set_active(False)
            dc.arrays.clear_vm_slot(j)
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=0)
        plan = agent.candidate_index.plan(dc)
        assert plan.num_rows == 0
        assert plan.num_actions == 0
        assert candidate_actions(agent, build_observation(dc)) == []

    def test_index_rebinds_across_datacenters(self):
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=0)
        for seed in (300, 301):
            dc = random_datacenter(seed)
            assert_plan_matches_oracle(agent, dc)


class TestBackendAxes:
    """Corners of the plan rules, each checked against the scalar
    oracle under both backends."""

    def test_underload_threshold_above_beta_dedups_after_the_cap(self):
        # With underload_threshold >= beta a host can be overloaded and
        # underloaded at once: its VMs are listed twice, the cap counts
        # both listings, and the dedup keeps the first.
        config = MeghConfig(underload_threshold=0.95, max_candidate_vms=12)
        overlapped = 0
        for seed in range(6):
            dc = random_datacenter(seed + 400, num_vms=28, demand_low=0.5)
            agent = MeghScheduler(
                num_vms=28, num_pms=8, config=config, seed=seed
            )
            arrays = dc.arrays
            util = arrays.pm_demand_utilization()
            overlapped += int(
                np.count_nonzero(
                    arrays.overloaded_pm_mask(agent.beta)
                    & (util <= config.underload_threshold)
                )
            )
            assert_plan_matches_oracle(agent, dc)
        assert overlapped > 0
        # PM 0 (util 0.75, three VMs) is listed as overloaded and again
        # as underloaded, before PM 2 (util 0.1, four VMs): the cap of
        # seven cuts [0, 1, 2, 0, 1, 2, 3 | 4, 5, 6] and leaves 4 rows.
        pms = [make_pm(i) for i in range(4)]
        vms = [make_vm(j, mips=1000.0, ram_mb=256.0) for j in range(7)]
        dc = Datacenter(pms, vms)
        for j in range(3):
            dc.place(j, 0)
            dc.vm(j).set_demand(1.0)
        for j in range(3, 7):
            dc.place(j, 2)
            dc.vm(j).set_demand(0.1)
        config = MeghConfig(underload_threshold=0.95, max_candidate_vms=7)
        agent = MeghScheduler(num_vms=7, num_pms=4, config=config, seed=0)
        plan = agent.candidate_index.plan(dc)
        assert plan.vm_ids.tolist() == [0, 1, 2, 3]
        assert_plan_matches_oracle(agent, dc)

    def test_relief_rows_fall_back_to_the_full_budget(self):
        # PM 0 is overloaded; every other host already carries 500 MIPS,
        # so 500 + 1000 exceeds the 0.4 * 0.7 headroom budget (1120) but
        # not the full beta budget (2800).
        pms = [make_pm(i) for i in range(4)]
        vms = [make_vm(j, mips=1000.0, ram_mb=256.0) for j in range(6)]
        dc = Datacenter(pms, vms)
        for j in range(3):
            dc.place(j, 0)
            dc.vm(j).set_demand(1.0)
        for j in range(3, 6):
            dc.place(j, j - 2)
            dc.vm(j).set_demand(0.5)
        agent = MeghScheduler(num_vms=6, num_pms=4, seed=0)
        plan = agent.candidate_index.plan(dc)
        relief = np.flatnonzero(plan.mandatory)
        assert relief.shape[0] == 3
        for r in relief.tolist():
            row = plan.dest_pm[plan.offsets[r] : plan.offsets[r + 1]]
            assert row.tolist() == [1, 2, 3]  # no no-op: it can move
        assert_plan_matches_oracle(agent, dc)

    def test_utilization_ties_while_the_destination_cap_binds(self):
        # Seven identical one-VM hosts tie on utilization; with room for
        # two destinations the lowest ids win the tie.
        pms = [make_pm(i, mips=4000.0) for i in range(8)]
        vms = [make_vm(j, mips=1000.0, ram_mb=256.0) for j in range(10)]
        dc = Datacenter(pms, vms)
        for j in range(3):
            dc.place(j, 0)
            dc.vm(j).set_demand(1.0)
        for j in range(3, 10):
            dc.place(j, j - 2)
            dc.vm(j).set_demand(0.4)
        config = MeghConfig(candidate_destinations=2)
        agent = MeghScheduler(num_vms=10, num_pms=8, config=config, seed=0)
        plan = agent.candidate_index.plan(dc)
        assert plan.mandatory[0]
        assert plan.dest_pm[plan.offsets[0] : plan.offsets[1]].tolist() == [
            1,
            2,
        ]
        assert_plan_matches_oracle(agent, dc)
        for seed in range(4):
            tied = random_datacenter(seed + 500, num_vms=28, demand_low=0.3)
            for j in range(28):
                tied.vm(j).set_demand(round(tied.vm(j).demanded_utilization * 4) / 4)
            agent = MeghScheduler(
                num_vms=28, num_pms=8, config=config, seed=seed
            )
            assert_plan_matches_oracle(agent, tied)

    def test_heterogeneous_ram_and_inactive_placed_vms(self):
        config = MeghConfig(max_candidate_vms=0, candidate_destinations=0)
        for seed in range(4):
            dc = random_datacenter(
                seed + 600,
                num_vms=24,
                demand_low=0.3,
                ram_choices=(256.0, 1024.0, 2048.0, 3072.0),
            )
            # Placed but inactive: still counted by pm_vm_count (the
            # easiest-to-empty order), never a candidate row.
            for j in (1, 5, 9):
                if dc.host_of(j) is not None:
                    dc.vm(j).set_active(False)
            agent = MeghScheduler(
                num_vms=24, num_pms=8, config=config, seed=seed
            )
            assert_plan_matches_oracle(agent, dc)

    def test_sleeping_hosts(self):
        for seed in range(4):
            dc = random_datacenter(
                seed + 700, num_pms=12, num_vms=14, demand_low=0.4
            )
            assert dc.sleep_idle_hosts()
            agent = MeghScheduler(num_vms=14, num_pms=12, seed=seed)
            assert_plan_matches_oracle(agent, dc)

    def test_rebinding_to_a_different_fleet_size(self):
        config = MeghConfig()
        indexes = backend_indexes(0.7, config)
        for seed, (num_pms, num_vms) in enumerate(
            [(8, 20), (12, 30), (5, 9), (8, 20)]
        ):
            dc = random_datacenter(
                seed + 800, num_pms=num_pms, num_vms=num_vms
            )
            agent = MeghScheduler(
                num_vms=num_vms, num_pms=num_pms, config=config, seed=0
            )
            oracle = candidate_actions(agent, build_observation(dc))
            plans = [index.plan(dc) for index in indexes]
            for plan in plans:
                assert plan.to_action_lists() == oracle
                assert plan.num_pms == num_pms
                assert_plans_equal(plan, plans[0])

    def test_returned_plans_do_not_alias_later_calls(self):
        dc = random_datacenter(900, num_vms=28, demand_low=0.4)
        agent = MeghScheduler(num_vms=28, num_pms=8, seed=0)
        first = agent.candidate_index.plan(dc)
        kept = {name: getattr(first, name).copy() for name in PLAN_FIELDS}
        for j in range(28):
            dc.vm(j).set_demand(1.0 - dc.vm(j).demanded_utilization)
        agent.candidate_index.plan(dc)
        for name in PLAN_FIELDS:
            np.testing.assert_array_equal(getattr(first, name), kept[name])


    def test_compiled_plan_rejects_a_host_id_out_of_range(self):
        if compiled_kernel() is None:
            pytest.skip("no C compiler: only the eager planner exists")
        dc = random_datacenter(901)
        index = CandidateIndex(
            beta=0.7, config=MeghConfig(), kernel=compiled_kernel()
        )
        index.plan(dc)
        dc.arrays.host_of[3] = dc.num_pms
        with pytest.raises(RuntimeError, match="out of their bounds"):
            index.plan(dc)


class TestBackendsOverARun:
    """The compiled and eager plans agree at every step of a 100-step
    run at a quarter of the paper fleet (200 PMs x 263 VMs)."""

    def test_every_plan_array_equal_between_backends(self):
        from repro.harness.builders import build_planetlab_simulation
        from repro.harness.runner import run_scheduler

        if compiled_kernel() is None:
            pytest.skip("no C compiler: only the eager planner exists")
        simulation = build_planetlab_simulation(
            num_pms=200, num_vms=263, num_steps=100, seed=0
        )
        scheduler = MeghScheduler.from_simulation(
            simulation, seed=0, contracts=False
        )
        index = scheduler.candidate_index
        compiled = CandidateIndex(
            beta=index.beta, config=index.config, kernel=compiled_kernel()
        )
        eager = CandidateIndex(beta=index.beta, config=index.config)
        checked = []

        def both(datacenter):
            plan = compiled.plan(datacenter)
            assert_plans_equal(plan, eager.plan(datacenter))
            checked.append(plan.num_actions)
            return plan

        scheduler._plan = lambda observation: both(observation.datacenter)
        run_scheduler(simulation, scheduler)
        assert len(checked) == 100
        assert sum(checked) > 0


class TestFullRunEquivalence:
    """decide() routed through either generator is trace-identical."""

    @staticmethod
    def _run(seed, scalar):
        from repro.core.trace import DecisionTrace
        from repro.harness.builders import build_planetlab_simulation
        from repro.harness.runner import run_scheduler

        simulation = build_planetlab_simulation(
            num_pms=10, num_vms=16, num_steps=60, seed=seed
        )
        scheduler = MeghScheduler.from_simulation(
            simulation, seed=seed, contracts=False
        )
        if scalar:
            scheduler._plan = lambda observation: scalar_plan(
                scheduler, observation
            )
        scheduler.trace = DecisionTrace()
        result = run_scheduler(simulation, scheduler)
        return scheduler, result

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_and_vectorized_traces_identical(self, seed):
        vec_agent, vec_result = self._run(seed, scalar=False)
        sca_agent, sca_result = self._run(seed, scalar=True)
        assert vec_result.total_migrations == sca_result.total_migrations
        assert vec_result.total_cost_usd == sca_result.total_cost_usd
        assert vec_agent.trace.records == sca_agent.trace.records
        assert (
            vec_agent.lstd.theta_cache_hits
            == sca_agent.lstd.theta_cache_hits
        )
        assert (
            vec_agent.lstd.theta_cache_misses
            == sca_agent.lstd.theta_cache_misses
        )


class TestSingleOverloadEvaluation:
    """Satellite: the overload predicate runs once per decide()."""

    def _counting_datacenter(self, dc):
        calls = {"mask": 0, "ids": 0}
        original_mask = DatacenterArrays.overloaded_pm_mask
        original_ids = Datacenter.overloaded_pm_ids

        def counting_mask(arrays_self, beta):
            calls["mask"] += 1
            return original_mask(arrays_self, beta)

        def counting_ids(dc_self, beta):
            calls["ids"] += 1
            return original_ids(dc_self, beta)

        return calls, counting_mask, counting_ids

    @pytest.mark.parametrize("scalar", [False, True])
    def test_one_evaluation_per_decide(self, scalar, monkeypatch):
        dc = random_datacenter(7)
        calls, counting_mask, counting_ids = self._counting_datacenter(dc)
        monkeypatch.setattr(
            DatacenterArrays, "overloaded_pm_mask", counting_mask
        )
        monkeypatch.setattr(Datacenter, "overloaded_pm_ids", counting_ids)
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=7)
        if scalar:
            agent._plan = lambda observation: scalar_plan(agent, observation)
        agent.decide(build_observation(dc))
        # Vectorized: one mask query.  Scalar oracle: one
        # overloaded_pm_ids call (which itself reads the mask once).
        # Historically the scalar pipeline evaluated the predicate four
        # times per decide (source ordering, relief membership, margin
        # exemption, move prioritisation).
        total = calls["mask"] if not scalar else calls["ids"]
        assert total == 1


class TestScratchReuse:
    def test_broadcast_buffers_are_reused(self):
        dc = random_datacenter(11)
        index = CandidateIndex(beta=0.7, config=MeghConfig())
        index.plan(dc)
        first = index._feas
        index.plan(dc)
        assert index._feas is first


class TestPlanDispatch:
    """``_plan`` reads the vectorized index; the scalar oracle run on the
    object-model datacenter plans the same fleet identically."""

    def test_soa_datacenter_takes_the_vectorized_index(self, monkeypatch):
        agent = MeghScheduler(num_vms=20, num_pms=8, seed=0)
        observation = build_observation(random_datacenter(5))
        expected = agent.candidate_index.plan(observation.datacenter)
        plan = agent._plan(observation)
        assert plan.num_rows > 0
        assert plan.to_action_lists() == expected.to_action_lists()

    def test_oracle_on_reference_matches_index_on_soa(self):
        pms = [make_pm(i) for i in range(4)]
        vms = [make_vm(j, mips=1500.0, ram_mb=256.0) for j in range(6)]
        reference = ReferenceDatacenter(pms, vms)
        soa = Datacenter(
            [make_pm(i) for i in range(4)],
            [make_vm(j, mips=1500.0, ram_mb=256.0) for j in range(6)],
        )
        for dc in (reference, soa):
            for j in range(6):
                dc.place(j, j % 2)
                dc.vm(j).set_demand(0.9)
        agent = MeghScheduler(num_vms=6, num_pms=4, seed=0)
        plan = agent._plan(build_observation(soa))
        assert plan.num_rows > 0
        monitor = DequeMonitor(history_length=12)
        monitor.observe(reference)
        observation = Observation(
            step=0,
            state=oracle_observe_state(reference, 0),
            datacenter=reference,
            monitor=monitor,
            last_step_cost_usd=0.0,
            interval_seconds=300.0,
        )
        oracle = scalar_plan(agent, observation)
        assert plan.to_action_lists() == oracle.to_action_lists()
        np.testing.assert_array_equal(plan.mandatory, oracle.mandatory)
