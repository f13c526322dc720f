"""Tests for the dense LSTD reference, checkpointing, and theory checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.core.checkpoint import load_agent, save_agent
from repro.core.dense import DenseLstd
from repro.core.exploration import EpsilonGreedyPolicy
from repro.core.lstd import SparseLstd
from repro.errors import ConfigurationError
from repro.harness.builders import build_planetlab_simulation
from repro.mdp.action import ActionSpace, MigrationAction

from tests.core.theory import (
    bellman_operator,
    fixed_point_iteration,
    projection_matrix,
    random_reachability,
    verify_contraction,
    verify_unique_projection,
)


class TestDenseMatchesSparse:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7),
                st.floats(-3, 3, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_q_values_agree(self, dim, raw_updates):
        sparse = SparseLstd(dimension=dim, gamma=0.5)
        dense = DenseLstd(dimension=dim, gamma=0.5)
        for a, b, cost in raw_updates:
            sparse.update(a % dim, b % dim, cost)
            dense.update(a % dim, b % dim, cost)
        for action in range(dim):
            assert sparse.q_value(action) == pytest.approx(
                dense.q_value(action), abs=1e-8
            )

    def test_theta_agrees(self):
        sparse = SparseLstd(dimension=5, gamma=0.5)
        dense = DenseLstd(dimension=5, gamma=0.5)
        for a, b, c in [(0, 1, 1.0), (1, 2, -0.5), (4, 0, 2.0)]:
            sparse.update(a, b, c)
            dense.update(a, b, c)
        assert np.allclose(sparse.theta(), dense.theta(), atol=1e-9)

    def test_dense_nnz_is_d_squared(self):
        assert DenseLstd(dimension=6, gamma=0.5).q_table_nonzeros == 36

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            DenseLstd(dimension=0, gamma=0.5)
        with pytest.raises(ConfigurationError):
            DenseLstd(dimension=3, gamma=1.0)


class TestEpsilonGreedy:
    def test_decay(self):
        policy = EpsilonGreedyPolicy(epsilon=0.5, decay=0.1)
        policy.step()
        assert policy.epsilon == pytest.approx(0.5 * np.exp(-0.1))

    def test_floor(self):
        policy = EpsilonGreedyPolicy(epsilon=0.5, decay=10.0, min_epsilon=0.05)
        policy.step()
        assert policy.epsilon == 0.05

    def test_probabilities(self):
        policy = EpsilonGreedyPolicy(epsilon=0.4)
        probs = policy.probabilities([2.0, 1.0])
        assert probs[1] == pytest.approx(0.6 + 0.2)
        assert probs[0] == pytest.approx(0.2)
        assert sum(probs) == pytest.approx(1.0)

    def test_greedy_at_zero_epsilon(self):
        policy = EpsilonGreedyPolicy(epsilon=0.0)
        action, index = policy.select(["a", "b"], [2.0, 1.0])
        assert action == "b"

    def test_select_greedy(self):
        policy = EpsilonGreedyPolicy(epsilon=1.0)
        assert policy.select_greedy(["a", "b"], [2.0, 1.0])[0] == "b"

    def test_usable_in_megh(self):
        sim = build_planetlab_simulation(num_pms=4, num_vms=6, num_steps=15)
        agent = MeghScheduler(
            num_vms=6,
            num_pms=4,
            policy=EpsilonGreedyPolicy(epsilon=0.3, seed=0),
        )
        result = sim.run(agent)
        assert len(result.metrics.steps) == 15

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedyPolicy(epsilon=1.5)
        with pytest.raises(ConfigurationError):
            EpsilonGreedyPolicy(decay=-1.0)


class TestCheckpoint:
    def _trained_agent(self, steps=40):
        sim = build_planetlab_simulation(num_pms=6, num_vms=8, num_steps=steps)
        agent = MeghScheduler.from_simulation(sim, seed=3)
        sim.run(agent)
        return agent

    def test_roundtrip_preserves_learning(self, tmp_path):
        agent = self._trained_agent()
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path, seed=3)
        assert restored.action_space.dimension == agent.action_space.dimension
        for action in range(0, agent.action_space.dimension, 5):
            assert restored.lstd.q_value(action) == pytest.approx(
                agent.lstd.q_value(action)
            )
        assert restored.policy.temperature == pytest.approx(
            agent.policy.temperature
        )
        assert restored.q_table_nonzeros == agent.q_table_nonzeros

    def test_restored_agent_continues(self, tmp_path):
        agent = self._trained_agent()
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        restored = load_agent(path, seed=3)
        sim = build_planetlab_simulation(num_pms=6, num_vms=8, num_steps=20, seed=9)
        result = sim.run(restored)
        assert len(result.metrics.steps) == 20

    def test_gamma_mismatch_rejected(self, tmp_path):
        agent = self._trained_agent()
        path = str(tmp_path / "agent.npz")
        save_agent(agent, path)
        with pytest.raises(ConfigurationError):
            load_agent(path, config=MeghConfig(gamma=0.9))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_agent("/nonexistent.npz")

    def test_wrong_npz(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ConfigurationError):
            load_agent(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(ConfigurationError):
            load_agent(str(path))


class TestTheorem1:
    def test_distinct_actions_unique_projection(self):
        space = ActionSpace(num_vms=3, num_pms=3)
        actions = [
            MigrationAction(0, 1),
            MigrationAction(1, 2),
            MigrationAction(2, 0),
        ]
        values = [1.5, -0.5, 2.0]
        unique, theta = verify_unique_projection(space, actions, values)
        assert unique
        psi = projection_matrix(space, actions)
        assert np.allclose(psi @ theta, values)

    def test_theta_entries_land_on_action_indices(self):
        space = ActionSpace(num_vms=2, num_pms=2)
        actions = [MigrationAction(0, 0), MigrationAction(1, 1)]
        unique, theta = verify_unique_projection(space, actions, [3.0, 4.0])
        assert unique
        assert theta[space.index(actions[0])] == pytest.approx(3.0)
        assert theta[space.index(actions[1])] == pytest.approx(4.0)

    def test_repeated_action_breaks_uniqueness(self):
        space = ActionSpace(num_vms=2, num_pms=2)
        actions = [MigrationAction(0, 0), MigrationAction(0, 0)]
        unique, _ = verify_unique_projection(space, actions, [1.0, 2.0])
        assert not unique

    def test_value_length_checked(self):
        space = ActionSpace(num_vms=2, num_pms=2)
        with pytest.raises(ConfigurationError):
            verify_unique_projection(space, [MigrationAction(0, 0)], [1.0, 2.0])


class TestTheorem2:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    def test_bellman_is_gamma_contraction(self, gamma):
        worst = verify_contraction(gamma=gamma, trials=80, seed=1)
        assert worst <= gamma + 1e-9

    def test_fixed_point_residuals_decay_geometrically(self):
        _, residuals = fixed_point_iteration(gamma=0.5, iterations=40)
        # After warm-up each residual shrinks by at least gamma.
        for before, after in zip(residuals[1:-1], residuals[2:]):
            if before < 1e-12:
                break
            assert after <= 0.5 * before + 1e-9

    def test_fixed_point_is_stationary(self):
        values, _ = fixed_point_iteration(gamma=0.5, iterations=80, seed=2)
        rng = np.random.default_rng(2)
        successors = random_reachability(12, 4, rng)
        costs = rng.uniform(0.1, 2.0, size=(12, 12))
        again = bellman_operator(values, costs, successors, gamma=0.5)
        assert np.allclose(again, values, atol=1e-8)

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            bellman_operator(
                np.zeros(2), np.zeros((2, 2)), [[0], [1]], gamma=1.0
            )

    def test_invalid_reachability(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            random_reachability(0, 1, rng)
