"""Tests for the clairvoyant oracle and regret analysis."""

import numpy as np
import pytest

from repro.baselines.noop import NoMigrationScheduler
from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.simulation import Simulation
from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.harness.builders import build_planetlab_simulation
from repro.harness.runner import run_comparison
from repro.workloads.base import ArrayWorkload

from tests.baselines.oracle import OracleScheduler
from tests.baselines.regret import (
    regret_curve,
    regret_is_sublinear,
    total_regret,
)
from tests.conftest import make_pm, make_vm


class TestOracle:
    def _burst_simulation(self):
        """VM 0 bursts at step 5 — announced one step ahead to an oracle."""
        pms = [make_pm(0), make_pm(1)]
        vms = [
            make_vm(0, mips=4000.0, ram_mb=512.0),
            make_vm(1, mips=1500.0, ram_mb=512.0),
        ]
        dc = Datacenter(pms, vms)
        dc.place(0, 0)
        dc.place(1, 0)
        matrix = np.full((2, 10), 0.1)
        matrix[0, 5:8] = 0.5  # 2000 MIPS
        matrix[1, 5:8] = 0.8  # +1200 MIPS: together 80 % of host 0
        workload = ArrayWorkload(matrix)
        return Simulation(dc, workload, SimulationConfig(num_steps=10))

    def test_moves_before_the_burst(self):
        sim = self._burst_simulation()
        oracle = OracleScheduler.from_simulation(sim)
        result = sim.run(oracle)
        # The overload never materializes: the conflict is resolved at
        # step 4, before the burst lands.
        assert all(
            s.num_overloaded_hosts == 0 for s in result.metrics.steps
        )
        assert result.total_migrations >= 1

    def test_noop_suffers_the_burst(self):
        sim = self._burst_simulation()
        result = sim.run(NoMigrationScheduler())
        assert any(s.num_overloaded_hosts > 0 for s in result.metrics.steps)

    def test_move_budget_respected(self):
        sim = build_planetlab_simulation(num_pms=6, num_vms=8, num_steps=30)
        oracle = OracleScheduler.from_simulation(sim, max_moves_per_step=1)
        result = sim.run(oracle)
        assert all(
            s.num_migrations_started <= 1 for s in result.metrics.steps
        )

    def test_last_step_peeks_at_itself(self):
        # At the final step there is no future; the oracle must not crash.
        sim = self._burst_simulation()
        oracle = OracleScheduler.from_simulation(sim)
        result = sim.run(oracle)
        assert len(result.metrics.steps) == 10

    def test_invalid_params(self):
        workload = ArrayWorkload(np.full((1, 2), 0.1))
        with pytest.raises(ConfigurationError):
            OracleScheduler(workload, beta=0.0)
        with pytest.raises(ConfigurationError):
            OracleScheduler(workload, max_moves_per_step=0)


class TestRegret:
    @pytest.fixture(scope="class")
    def runs(self):
        sim = build_planetlab_simulation(
            num_pms=8, num_vms=11, num_steps=60, seed=4
        )
        return run_comparison(
            sim,
            {
                "Oracle": lambda s: OracleScheduler.from_simulation(s),
                "NoMig": lambda s: NoMigrationScheduler(),
            },
        )

    def test_curve_length_and_cumulative(self, runs):
        curve = regret_curve(runs["NoMig"], runs["Oracle"])
        assert len(curve) == 60
        assert curve[-1] == pytest.approx(
            runs["NoMig"].total_cost_usd - runs["Oracle"].total_cost_usd
        )

    def test_total_regret_matches_curve_end(self, runs):
        assert total_regret(runs["NoMig"], runs["Oracle"]) == pytest.approx(
            regret_curve(runs["NoMig"], runs["Oracle"])[-1]
        )

    def test_self_regret_is_zero(self, runs):
        assert total_regret(runs["Oracle"], runs["Oracle"]) == pytest.approx(
            0.0
        )

    def test_mismatched_lengths_rejected(self, runs):
        sim = build_planetlab_simulation(num_pms=4, num_vms=5, num_steps=10)
        short = sim.run(NoMigrationScheduler())
        with pytest.raises(ConfigurationError):
            regret_curve(short, runs["Oracle"])

    def test_sublinearity_trivial_cases(self, runs):
        assert regret_is_sublinear(runs["Oracle"], runs["Oracle"])
        with pytest.raises(ConfigurationError):
            regret_is_sublinear(runs["Oracle"], runs["Oracle"], tolerance=0.0)

    @pytest.mark.slow
    def test_megh_regret_sublinear(self):
        from repro.core.agent import MeghScheduler

        sim = build_planetlab_simulation(
            num_pms=16, num_vms=21, num_steps=800, seed=0
        )
        runs = run_comparison(
            sim,
            {
                "Oracle": lambda s: OracleScheduler.from_simulation(s),
                "Megh": lambda s: MeghScheduler.from_simulation(s, seed=0),
            },
        )
        # The learning scheduler's gap to the clairvoyant reference must
        # shrink after the exploration phase.
        assert regret_is_sublinear(
            runs["Megh"], runs["Oracle"], tolerance=1.2
        )
