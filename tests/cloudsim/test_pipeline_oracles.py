"""Whole runs checked stage by stage against the object-formula oracles.

Every step of a real ``Simulation.run`` feeds the same inputs to the
pipeline's array stages and to their per-entity oracles
(:mod:`tests.oracles.pipeline`), and requires ``==`` results:

* the monitor's ring histories vs a dict-of-deques monitor;
* the SLA accountant's vectors and windows vs a dict-and-deque
  accumulator, record for record and in first-seen order;
* the energy cost vs the per-PM watts loop;
* ``observe_state`` and the mean-active-utilization metric vs their
  object formulas;
* for Megh, the candidate plan vs the scalar generator.

The stages are shadowed the way the repo's traced benchmark does it:
instance attributes on the objects of the run, module names patched
for the module-level functions.  Floats are compared with ``==`` on
purpose: the contract is bit equality.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

import repro.cloudsim.simulation as simulation_module
from repro.baselines.mmt import MMTScheduler
from repro.cloudsim.allocation import PLACEMENT_POLICIES
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import Simulation, StepPipeline
from repro.config import SimulationConfig
from repro.core.agent import MeghScheduler
from repro.harness.builders import (
    build_google_simulation,
    build_planetlab_simulation,
    make_planetlab_fleet,
)
from repro.workloads.planetlab import generate_planetlab_workload

from tests.oracles import pipeline as oracle
from tests.oracles.megh_candidates import candidate_actions


def _check_monitor(monitor, calls):
    """Shadow ``monitor.observe`` with a deque-monitor comparison."""
    observe = monitor.observe
    deques = oracle.DequeMonitor(monitor.history_length)

    def checked(datacenter):
        observe(datacenter)
        deques.observe(datacenter)
        calls["monitor"] += 1
        matrix = monitor.host_matrix()
        for vm in datacenter.vms:
            assert monitor.vm_history(vm.vm_id) == deques.vm_history(vm.vm_id)
        for pm in datacenter.pms:
            assert matrix[:, pm.pm_id].tolist() == deques.host_history(pm.pm_id)
            assert monitor.last_host_utilization(
                pm.pm_id
            ) == deques.last_host_utilization(pm.pm_id)

    monitor.observe = checked


def _check_accountant(accountant, calls):
    """Shadow ``accountant.observe_step`` with the dict-and-deque
    accumulator; every record must agree after every step."""
    observe_step = accountant.observe_step
    sla = oracle.SlaOracle(accountant.beta, accountant.window_steps)

    def checked(datacenter, interval_seconds, migration_downtime=()):
        observe_step(datacenter, interval_seconds, migration_downtime)
        sla.observe_step(datacenter, interval_seconds, migration_downtime)
        calls["sla"] += 1
        calls["migration_downtime"] += len(dict(migration_downtime))
        assert list(accountant.hosts) == list(sla.hosts)
        for pm_id, expected in sla.hosts.items():
            record = accountant.hosts[pm_id]
            assert record.active_seconds == expected.active_seconds
            assert record.overload_seconds == expected.overload_seconds
        assert list(accountant.vms) == list(sla.vms)
        for vm_id, expected in sla.vms.items():
            record = accountant.vms[vm_id]
            assert record.requested_seconds == expected.requested_seconds
            assert (
                record.migration_downtime_seconds
                == expected.migration_downtime_seconds
            )
            assert (
                record.overload_downtime_seconds
                == expected.overload_downtime_seconds
            )
            assert record.window_entries() == list(expected.window)
            assert record.downtime_fraction == expected.downtime_fraction

    accountant.observe_step = checked


def _check_energy(energy, price, calls):
    """Shadow the energy model's ``step_cost`` with the watts loop."""
    step_cost = energy.step_cost

    def checked(datacenter, interval_seconds):
        usd = step_cost(datacenter, interval_seconds)
        calls["energy"] += 1
        watts = oracle.total_watts(datacenter)
        assert usd == watts * interval_seconds * price
        return usd

    energy.step_cost = checked


def _shadow_module(monkeypatch, calls):
    """Patch the module-level stages the pipeline calls by name."""
    real_observe = simulation_module.observe_state
    real_mean = simulation_module._mean_active_host_utilization

    def observe_state(datacenter, step):
        state = real_observe(datacenter, step)
        calls["observe_state"] += 1
        assert state == oracle.observe_state(datacenter, step)
        return state

    def mean_utilization(datacenter):
        value = real_mean(datacenter)
        calls["mean_utilization"] += 1
        assert value == oracle.mean_active_host_utilization(datacenter)
        return value

    class CheckedPipeline(StepPipeline):
        def __init__(self, datacenter, config, monitor, **kwargs):
            super().__init__(datacenter, config, monitor, **kwargs)
            _check_monitor(self.monitor, calls)
            _check_accountant(self.accountant, calls)
            _check_energy(
                self.cost_model.energy,
                config.costs.energy_price_usd_per_watt_second,
                calls,
            )

    monkeypatch.setattr(simulation_module, "observe_state", observe_state)
    monkeypatch.setattr(
        simulation_module, "_mean_active_host_utilization", mean_utilization
    )
    monkeypatch.setattr(simulation_module, "StepPipeline", CheckedPipeline)


def _check_candidates(agent, calls):
    """Shadow the Megh agent's index with the scalar generator."""
    plan = agent.candidate_index.plan

    def checked(datacenter):
        result = plan(datacenter)
        calls["candidates"] += 1
        expected = candidate_actions(
            agent, SimpleNamespace(datacenter=datacenter)
        )
        assert result.to_action_lists() == expected
        return result

    agent.candidate_index.plan = checked


def _checked_run(monkeypatch, simulation, scheduler, num_steps):
    calls = Counter()
    _shadow_module(monkeypatch, calls)
    result = simulation.run(scheduler, validate_every_step=False)
    # Every stage was compared on every step.
    for stage in (
        "monitor", "sla", "energy", "observe_state", "mean_utilization"
    ):
        assert calls[stage] == num_steps, stage
    return result, calls


def _thr_simulation(seed, num_pms=8, num_vms=20, num_steps=30):
    pms, vms = make_planetlab_fleet(num_pms, num_vms, seed=seed)
    datacenter = Datacenter(pms, vms)
    PLACEMENT_POLICIES["first-fit"](datacenter)
    workload = generate_planetlab_workload(
        num_vms=num_vms, num_steps=num_steps, seed=seed
    )
    config = SimulationConfig(num_steps=num_steps, seed=seed)
    return Simulation(datacenter, workload, config)


class TestPipelineOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thr_mmt_run(self, monkeypatch, seed):
        simulation = _thr_simulation(seed)
        result, calls = _checked_run(
            monkeypatch, simulation, MMTScheduler("THR"), 30
        )
        # The run must migrate, or it proves nothing about the
        # migration-downtime paths of the SLA accountant.
        assert result.total_migrations > 0
        assert calls["migration_downtime"] > 0

    def test_lrr_mmt_run(self, monkeypatch):
        simulation = build_planetlab_simulation(
            num_pms=16, num_vms=24, num_steps=30, seed=3
        )
        result, _ = _checked_run(
            monkeypatch, simulation, MMTScheduler("LRR"), 30
        )
        assert result.total_migrations > 0

    def test_megh_run(self, monkeypatch):
        simulation = build_planetlab_simulation(
            num_pms=10, num_vms=16, num_steps=30, seed=1
        )
        agent = MeghScheduler.from_simulation(
            simulation, seed=1, contracts=False
        )
        calls_plan = Counter()
        _check_candidates(agent, calls_plan)
        result, _ = _checked_run(monkeypatch, simulation, agent, 30)
        assert calls_plan["candidates"] == 30
        assert result.total_migrations > 0

    def test_google_static_run(self, monkeypatch):
        # Task VMs keep their reservations while idle, so MMT migrates
        # inactive VMs too: their migration downtime is billed off the
        # per-host scan.
        simulation = build_google_simulation(
            num_pms=8, num_vms=40, num_steps=30, seed=2
        )
        result, calls = _checked_run(
            monkeypatch, simulation, MMTScheduler("THR"), 30
        )
        assert calls["migration_downtime"] > 0
        assert result.total_migrations > 0
