"""Tests for the Megh scheduler (Algorithm 1 wired into the simulator)."""

import pytest

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import Simulation
from repro.config import MeghConfig, SimulationConfig
from repro.core.agent import MeghScheduler
from repro.errors import ConfigurationError
from repro.mdp.interfaces import Observation
from repro.mdp.state import observe_state
from repro.cloudsim.monitor import UtilizationMonitor
from repro.workloads.synthetic import constant_workload, spike_workload

from tests.conftest import make_pm, make_vm


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


@pytest.fixture
def overloaded_dc():
    """Host 0 overloaded (demand 95 %), hosts 1-2 nearly empty."""
    pms = [make_pm(i) for i in range(3)]
    vms = [make_vm(j, mips=2000.0, ram_mb=512.0) for j in range(4)]
    dc = Datacenter(pms, vms)
    dc.place(0, 0)
    dc.place(1, 0)
    dc.place(2, 1)
    dc.place(3, 2)
    dc.vm(0).set_demand(0.95)
    dc.vm(1).set_demand(0.95)
    dc.vm(2).set_demand(0.05)
    dc.vm(3).set_demand(0.05)
    return dc


class TestConstruction:
    def test_dimension_matches_fleet(self):
        agent = MeghScheduler(num_vms=5, num_pms=3)
        assert agent.action_space.dimension == 15

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            MeghScheduler(num_vms=2, num_pms=2, beta=0.0)

    def test_from_simulation(self, tiny_simulation):
        agent = MeghScheduler.from_simulation(tiny_simulation)
        assert agent.action_space.num_vms == 4
        assert agent.action_space.num_pms == 3
        assert agent.beta == pytest.approx(0.70)


class TestOverloadRelief:
    def test_relieves_overloaded_host(self, overloaded_dc):
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        migrations = agent.decide(build_observation(overloaded_dc))
        # Host 0 demands (0.95+0.95)*2000 / 4000 = 95 % > beta; one VM
        # must move off it (cap is max(1, 2% of 4) = 1).
        assert len(migrations) == 1
        assert overloaded_dc.host_of(migrations[0].vm_id) == 0
        assert migrations[0].dest_pm_id != 0

    def test_relief_capped_by_budget(self, overloaded_dc):
        config = MeghConfig(max_migration_fraction=0.5)
        agent = MeghScheduler(num_vms=4, num_pms=3, config=config, seed=0)
        migrations = agent.decide(build_observation(overloaded_dc))
        assert len(migrations) <= 2

    def test_no_candidates_no_migrations(self):
        pms = [make_pm(i) for i in range(2)]
        vms = [make_vm(0)]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.vm(0).set_demand(0.5)  # 500/4000: neither over- nor underloaded
        config = MeghConfig(underload_threshold=0.05)
        agent = MeghScheduler(num_vms=1, num_pms=2, config=config, seed=0)
        assert agent.decide(build_observation(dc)) == []

    def test_migrations_target_feasible_hosts(self, overloaded_dc):
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        for trial in range(5):
            dc_obs = build_observation(overloaded_dc, step=trial)
            for migration in agent.decide(dc_obs):
                assert overloaded_dc.fits(
                    migration.vm_id, migration.dest_pm_id
                )


class TestLearningLoop:
    def test_temperature_decays_each_step(self, overloaded_dc):
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        before = agent.temperature
        agent.decide(build_observation(overloaded_dc))
        assert agent.temperature < before

    def test_qtable_tracked_per_step(self, overloaded_dc):
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        agent.decide(build_observation(overloaded_dc, step=0))
        agent.decide(build_observation(overloaded_dc, step=1, last_cost=1.0))
        assert len(agent.qtable.samples) == 2

    def test_learns_from_last_step_cost(self, overloaded_dc):
        agent = MeghScheduler(num_vms=4, num_pms=3, seed=0)
        agent.decide(build_observation(overloaded_dc, step=0))
        before = agent.lstd.updates_applied
        agent.decide(build_observation(overloaded_dc, step=1, last_cost=2.0))
        assert agent.lstd.updates_applied > before

    def test_cost_normalization_centers_signal(self):
        agent = MeghScheduler(num_vms=2, num_pms=2)
        values = [agent._normalize_cost(c) for c in (1.0, 1.0, 1.0)]
        # With a constant cost stream the centered signal goes to zero.
        assert values[-1] == pytest.approx(0.0)

    def test_cost_scale_override(self):
        config = MeghConfig(cost_scale=10.0, baseline_subtraction=False)
        agent = MeghScheduler(num_vms=2, num_pms=2, config=config)
        assert agent._normalize_cost(5.0) == pytest.approx(0.5)


class TestEndToEnd:
    def _run(self, workload, steps, config=None, seed=0):
        pms = [make_pm(i) for i in range(4)]
        vms = [make_vm(j, ram_mb=512.0) for j in range(6)]
        dc = Datacenter(pms, vms)
        for j in range(6):
            dc.place(j, j % 4)
        sim = Simulation(dc, workload, SimulationConfig(num_steps=steps))
        agent = MeghScheduler.from_simulation(sim, config=config, seed=seed)
        return sim.run(agent), agent

    def test_full_run_is_stable(self):
        workload = spike_workload(6, 60, base=0.2, spike=0.9, seed=0)
        result, agent = self._run(workload, 60)
        assert len(result.metrics.steps) == 60
        assert agent.q_table_nonzeros >= agent.action_space.dimension

    def test_migration_budget_respected_every_step(self):
        workload = spike_workload(6, 40, base=0.3, spike=0.95, seed=1)
        result, _ = self._run(workload, 40)
        cap = max(1, int(0.02 * 6))
        assert all(
            s.num_migrations_started <= cap for s in result.metrics.steps
        )

    def test_constant_workload_converges_to_no_migrations(self):
        # Nothing ever overloads and Q-values stabilize: late-run
        # migrations must stop (the hysteresis margin prevents ping-pong).
        workload = constant_workload(6, 120, level=0.3)
        result, _ = self._run(workload, 120)
        late = [s.num_migrations_started for s in result.metrics.steps[-30:]]
        assert sum(late) <= 2

    def test_deterministic_given_seed(self):
        workload = spike_workload(6, 50, base=0.2, spike=0.9, seed=2)
        result_a, _ = self._run(workload, 50, seed=9)
        result_b, _ = self._run(workload, 50, seed=9)
        assert result_a.total_migrations == result_b.total_migrations
        assert result_a.total_cost_usd == pytest.approx(
            result_b.total_cost_usd
        )

    def test_consolidation_disabled(self):
        config = MeghConfig(consolidate_underloaded=False)
        workload = constant_workload(6, 30, level=0.05)
        result, _ = self._run(workload, 30, config=config)
        # Underloaded everywhere, but consolidation is off and nothing
        # overloads: no migrations at all.
        assert result.total_migrations == 0


class TestFirstDecideImports:
    """NumPy 2.x imports ``numpy.ma`` on a process's first plain
    ``np.unique`` (about 15 ms, inside the first timed ``decide()`` and
    so inside Fig 6's first job); Megh's path must not call it."""

    def test_megh_steps_leave_numpy_ma_unimported(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.harness.builders import build_planetlab_simulation\n"
            "from repro.harness.runner import run_scheduler\n"
            "from repro.core.agent import MeghScheduler\n"
            "sim = build_planetlab_simulation(\n"
            "    num_pms=10, num_vms=13, num_steps=3, seed=0)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "scheduler = MeghScheduler.from_simulation(sim, seed=0)\n"
            "run_scheduler(sim, scheduler)\n"
            "assert len(scheduler.qtable.samples) == 3\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
