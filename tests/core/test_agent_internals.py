"""Focused tests for MeghScheduler's internal mechanisms."""

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.monitor import UtilizationMonitor
from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.mdp.action import MigrationAction
from repro.mdp.interfaces import Observation
from repro.mdp.state import observe_state

from tests.conftest import make_pm, make_vm
from tests.oracles.megh_candidates import (
    candidate_actions,
    destinations_for,
    feasible_destinations,
)


def build_observation(datacenter, step=0, last_cost=0.0):
    monitor = UtilizationMonitor()
    monitor.observe(datacenter)
    return Observation(
        step=step,
        state=observe_state(datacenter, step),
        datacenter=datacenter,
        monitor=monitor,
        last_step_cost_usd=last_cost,
        interval_seconds=300.0,
    )


class TestDestinationProposals:
    def _dc(self, num_pms=4, num_vms=4, vm_mips=2000.0):
        pms = [make_pm(i) for i in range(num_pms)]
        vms = [make_vm(j, mips=vm_mips, ram_mb=512.0) for j in range(num_vms)]
        dc = Datacenter(pms, vms)
        return dc

    def test_consolidation_skips_empty_hosts(self):
        dc = self._dc()
        dc.place(0, 0)
        dc.place(1, 1)
        dc.vm(0).set_demand(0.1)
        dc.vm(1).set_demand(0.1)
        agent = MeghScheduler(num_vms=4, num_pms=4, seed=0)
        observation = build_observation(dc)
        dests = destinations_for(agent, observation, 0, current=0)
        # Hosts 2 and 3 are empty: not consolidation targets.
        assert set(dests) <= {1}

    def test_relief_may_wake_empty_hosts(self):
        dc = self._dc()
        dc.place(0, 0)
        dc.place(1, 0)
        dc.vm(0).set_demand(0.9)
        dc.vm(1).set_demand(0.9)
        agent = MeghScheduler(num_vms=4, num_pms=4, seed=0)
        observation = build_observation(dc)
        dests = destinations_for(agent, observation, 0, current=0, relief=True)
        assert set(dests) & {1, 2, 3}

    def test_relief_falls_back_to_full_beta_budget(self):
        # VM demand 1900 MIPS; headroom budget = 0.6*0.7*4000 = 1680 is
        # too small, but the full beta budget 2800 admits it.
        dc = self._dc(vm_mips=2000.0)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.95)
        agent = MeghScheduler(num_vms=4, num_pms=4, seed=0)
        observation = build_observation(dc)
        constrained = feasible_destinations(
            agent, dc, 0, current=0, headroom=0.6, allow_empty_hosts=True
        )
        assert constrained == []
        dests = destinations_for(agent, observation, 0, current=0, relief=True)
        assert dests, "relief must fall back to the full beta budget"

    def test_candidate_destinations_limit_prefers_loaded(self):
        dc = self._dc(num_pms=6, num_vms=6, vm_mips=1000.0)
        for j in range(6):
            dc.place(j, j % 3 + 1)  # hosts 1-3 busy, 0/4/5 empty
        dc.vm(0).set_demand(0.05)
        for j in range(1, 6):
            dc.vm(j).set_demand(0.3)
        config = MeghConfig(candidate_destinations=1)
        agent = MeghScheduler(num_vms=6, num_pms=6, config=config, seed=0)
        observation = build_observation(dc)
        dests = destinations_for(
            agent, observation, 0, current=dc.host_of(0)
        )
        assert len(dests) == 1
        # The single proposal is the most-utilized feasible host.
        utils = {
            pm.pm_id: dc.demanded_utilization(pm.pm_id)
            for pm in dc.pms
            if dc.vms_on(pm.pm_id) and pm.pm_id != dc.host_of(0)
        }
        assert dests[0] == max(utils, key=utils.get)


class TestCostNormalization:
    def test_running_mean_tracks_stream(self):
        agent = MeghScheduler(num_vms=2, num_pms=2)
        for cost in (1.0, 2.0, 3.0):
            agent._normalize_cost(cost)
        assert agent._cost_running_mean == pytest.approx(2.0)

    def test_below_average_cost_goes_negative(self):
        agent = MeghScheduler(num_vms=2, num_pms=2)
        agent._normalize_cost(10.0)
        assert agent._normalize_cost(1.0) < 0.0

    def test_scale_is_running_mean_magnitude(self):
        agent = MeghScheduler(num_vms=2, num_pms=2)
        agent._normalize_cost(4.0)
        # second cost 8: mean becomes 6; signal = (8-6)/6.
        assert agent._normalize_cost(8.0) == pytest.approx((8 - 6) / 6)


class TestSelectionMechanics:
    def _relief_dc(self):
        pms = [make_pm(i) for i in range(3)]
        vms = [make_vm(j, mips=2000.0, ram_mb=512.0) for j in range(4)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 0)
        dc.place(2, 1)
        dc.place(3, 2)
        dc.vm(0).set_demand(0.9)
        dc.vm(1).set_demand(0.9)
        dc.vm(2).set_demand(0.3)
        dc.vm(3).set_demand(0.3)
        return dc

    def test_noop_excluded_for_overloaded_sources(self):
        dc = self._relief_dc()
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        candidates = candidate_actions(agent, build_observation(dc))
        overloaded_vm_lists = [
            actions
            for actions in candidates
            if dc.host_of(actions[0].vm_id) == 0
        ]
        assert overloaded_vm_lists
        for actions in overloaded_vm_lists:
            assert all(a.dest_pm_id != 0 for a in actions)

    def test_noop_kept_when_no_destination_exists(self):
        # Single host: nothing can move, the no-op must survive.
        pms = [make_pm(0)]
        vms = [make_vm(0, mips=4000.0, ram_mb=512.0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.9)
        agent = MeghScheduler(num_vms=1, num_pms=1, seed=0)
        candidates = candidate_actions(agent, build_observation(dc))
        assert candidates == [[MigrationAction(vm_id=0, dest_pm_id=0)]]

    def test_candidate_vm_cap(self):
        pms = [make_pm(i) for i in range(2)]
        vms = [make_vm(j, mips=500.0, ram_mb=256.0) for j in range(10)]
        dc = Datacenter(pms, vms)
        for j in range(10):
            dc.place(j, j % 2)
            dc.vm(j).set_demand(0.1)  # everyone underloaded
        config = MeghConfig(max_candidate_vms=3)
        agent = MeghScheduler(num_vms=10, num_pms=2, config=config, seed=0)
        candidates = candidate_actions(agent, build_observation(dc))
        assert len(candidates) <= 3

    def test_recorded_updates_bounded_by_moves(self):
        dc = self._relief_dc()
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        agent.decide(build_observation(dc, step=0))
        # moves <= cap (1) and recorded <= moves + noop budget (1 + 1).
        assert len(agent._previous_action_indices) <= 2


class TestPreferredHosts:
    def test_learned_preferences_surface(self):
        agent = MeghScheduler(num_vms=2, num_pms=3, seed=0)
        # Teach the agent that VM 0 -> PM 2 is cheap, PM 1 expensive.
        cheap = agent.basis.index_of(MigrationAction(0, 2))
        costly = agent.basis.index_of(MigrationAction(0, 1))
        for _ in range(5):
            agent.lstd.update(cheap, cheap, cost=-1.0)
            agent.lstd.update(costly, costly, cost=1.0)
        ranking = agent.preferred_hosts(0, top_k=3)
        assert ranking[0][0] == 2
        assert ranking[-1][0] == 1
        qs = [q for _, q in ranking]
        assert qs == sorted(qs)

    def test_top_k_bounds(self):
        agent = MeghScheduler(num_vms=2, num_pms=5, seed=0)
        assert len(agent.preferred_hosts(0, top_k=2)) == 2
        assert len(agent.preferred_hosts(0, top_k=99)) == 5

    def test_invalid_args(self):
        import pytest as _pytest
        from repro.errors import ConfigurationError

        agent = MeghScheduler(num_vms=2, num_pms=2, seed=0)
        with _pytest.raises(ConfigurationError):
            agent.preferred_hosts(9)
        with _pytest.raises(ConfigurationError):
            agent.preferred_hosts(0, top_k=0)


class TestTraceQReuse:
    """Satellite: the trace branch reuses selection's Q values instead of
    recomputing them through the LSTD core."""

    @staticmethod
    def _run(trace):
        from repro.harness.builders import build_planetlab_simulation
        from repro.harness.runner import run_scheduler

        simulation = build_planetlab_simulation(
            num_pms=6, num_vms=9, num_steps=40, seed=5
        )
        scheduler = MeghScheduler.from_simulation(
            simulation, seed=5, contracts=False
        )
        scheduler.trace = trace
        result = run_scheduler(simulation, scheduler)
        evaluations = (
            scheduler.lstd.theta_cache_hits
            + scheduler.lstd.theta_cache_misses
        )
        return scheduler, result, evaluations

    def test_tracing_adds_no_q_evaluations(self):
        from repro.core.trace import DecisionTrace

        _, result_off, evals_off = self._run(trace=None)
        scheduler, result_on, evals_on = self._run(trace=DecisionTrace())
        # Identical runs (same seed), so identical behaviour...
        assert result_on.total_migrations == result_off.total_migrations
        assert result_on.total_cost_usd == result_off.total_cost_usd
        # ...and tracing must be observation-only: zero extra Q lookups.
        assert evals_on == evals_off

    def test_traced_q_matches_selection_values(self):
        from repro.core.trace import DecisionTrace

        scheduler, _, _ = self._run(trace=DecisionTrace())
        records = scheduler.trace.records
        assert any(record.chosen for record in records)
        for record in records:
            assert len(record.chosen_q) == len(record.chosen)
            for value in record.chosen_q:
                assert isinstance(value, float)
