"""Differential oracle for the array-native candidate pipeline.

The vectorized :class:`~repro.core.candidates.CandidateIndex` must
produce the *same ordered candidate lists element for element* as the
scalar generator (``tests/oracles/megh_candidates.py``) — on
randomized fleets covering churned/retired slots and the candidate
caps on and off — and routing ``decide()``
through either generator must leave whole-run decision traces
identical.  Also pins satellite fixes: exactly one overload-predicate
evaluation per ``decide()``.
"""

import numpy as np
import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.soa import DatacenterArrays
from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.core.candidates import CandidateIndex
from repro.mdp.interfaces import Observation

from tests.conftest import make_pm, make_vm
from tests.core.test_agent_internals import build_observation
from tests.oracles.megh_candidates import candidate_actions, scalar_plan
from tests.oracles.pipeline import DequeMonitor
from tests.oracles.pipeline import observe_state as oracle_observe_state
from tests.oracles.reference_datacenter import ReferenceDatacenter


def random_datacenter(seed, num_pms=8, num_vms=20, churn=False):
    """A randomized placed fleet; ``churn`` retires some slots."""
    rng = np.random.default_rng(seed)
    pms = [make_pm(i) for i in range(num_pms)]
    vms = [make_vm(j, mips=1000.0, ram_mb=256.0) for j in range(num_vms)]
    dc = Datacenter(pms, vms)
    for j in range(num_vms):
        dc.place(j, int(rng.integers(0, num_pms)))
        dc.vm(j).set_demand(float(rng.uniform(0.0, 1.0)))
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
    """Vectorized plan == scalar lists, element for element."""
    observation = build_observation(dc)
    oracle = candidate_actions(agent, observation)
    plan = agent.candidate_index.plan(dc)
    assert plan.to_action_lists() == oracle
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
