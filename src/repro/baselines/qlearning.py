"""Offline-trained tabular Q-learning baseline (Section 2.2).

The paper dismisses Q-learning because it "has to go through
computationally expensive training periods" before it can be deployed
online, and breaks down when the live workload departs from the training
one.  This baseline makes that concrete: a tabular agent over a coarse
global state (buckets of overloaded-host count and mean utilization) and
three meta-actions (do nothing / relieve the most overloaded host /
consolidate the least loaded host), trained offline with epsilon-greedy
episodes on a training workload and deployed greedily.

The meta-action abstraction is forced by tabularity — the exact
combinatorial state-action space would need ``|C| x N x M`` table rows,
the curse of dimensionality the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cloudsim.metrics import ordered_sum
from repro.cloudsim.migration import Migration
from repro.baselines.mmt.placement import power_aware_best_fit
from repro.errors import ConfigurationError
from repro.mdp.interfaces import Observation

#: Meta-actions of the tabular agent.
ACTION_NOOP = 0
ACTION_RELIEVE = 1
ACTION_CONSOLIDATE = 2
NUM_ACTIONS = 3

StateKey = Tuple[int, int]


class QLearningScheduler:
    """Tabular Q-learning over a coarse global state.

    Args:
        beta: host overload threshold.
        learning_rate: Q-update step size during training.
        gamma: discount factor.
        epsilon: exploration rate during training episodes.
        utilization_buckets: buckets for the mean-utilization state axis.
        overload_buckets: cap on the overloaded-host-count state axis.
        placement_threshold: PABFD fill threshold for generated moves.
        seed: RNG seed.
    """

    name = "Q-learning"

    def __init__(
        self,
        beta: float = 0.70,
        learning_rate: float = 0.1,
        gamma: float = 0.5,
        epsilon: float = 0.1,
        utilization_buckets: int = 10,
        overload_buckets: int = 5,
        placement_threshold: float = 0.70,
        seed: int = 0,
    ) -> None:
        if not 0 < learning_rate <= 1:
            raise ConfigurationError("learning rate must be in (0, 1]")
        if not 0 <= gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")
        if not 0 <= epsilon <= 1:
            raise ConfigurationError("epsilon must be in [0, 1]")
        self.beta = beta
        self.learning_rate = learning_rate
        self.gamma = gamma
        self.epsilon = epsilon
        self.utilization_buckets = utilization_buckets
        self.overload_buckets = overload_buckets
        self.placement_threshold = placement_threshold
        self.q_table: Dict[StateKey, np.ndarray] = {}
        self.training = False
        self._rng = np.random.default_rng(seed)
        self._last_state: StateKey | None = None
        self._last_action: int | None = None

    # ------------------------------------------------------------------
    def _state_key(self, observation: Observation) -> StateKey:
        datacenter = observation.datacenter
        overloaded = len(datacenter.overloaded_pm_ids(self.beta))
        overloaded = min(overloaded, self.overload_buckets)
        active = datacenter.active_pm_ids()
        if active:
            mean_util = ordered_sum(
                min(1.0, datacenter.demanded_utilization(pm_id))
                for pm_id in active
            ) / len(active)
        else:
            mean_util = 0.0
        bucket = min(
            self.utilization_buckets - 1,
            int(mean_util * self.utilization_buckets),
        )
        return (overloaded, bucket)

    def _q_row(self, state: StateKey) -> np.ndarray:
        if state not in self.q_table:
            self.q_table[state] = np.zeros(NUM_ACTIONS)
        return self.q_table[state]

    # ------------------------------------------------------------------
    def decide(self, observation: Observation) -> List[Migration]:
        state = self._state_key(observation)
        if self.training and self._last_state is not None:
            self._learn(observation.last_step_cost_usd, state)
        if self.training and self._rng.random() < self.epsilon:
            action = int(self._rng.integers(0, NUM_ACTIONS))
        else:
            action = int(np.argmin(self._q_row(state)))
        self._last_state, self._last_action = state, action
        if action == ACTION_RELIEVE:
            return self._relieve(observation)
        if action == ACTION_CONSOLIDATE:
            return self._consolidate(observation)
        return []

    def _learn(self, cost: float, new_state: StateKey) -> None:
        row = self._q_row(self._last_state)
        best_next = float(np.min(self._q_row(new_state)))
        target = cost + self.gamma * best_next
        row[self._last_action] += self.learning_rate * (
            target - row[self._last_action]
        )

    # ------------------------------------------------------------------
    def _relieve(self, observation: Observation) -> List[Migration]:
        datacenter = observation.datacenter
        overloaded = datacenter.overloaded_pm_ids(self.beta)
        if not overloaded:
            return []
        worst = max(overloaded, key=datacenter.demanded_utilization)
        vms = sorted(
            datacenter.vms_on(worst),
            key=lambda vm_id: -datacenter.vm(vm_id).demanded_mips,
        )
        if not vms:
            return []
        plan = power_aware_best_fit(
            datacenter,
            vms[:1],
            threshold=self.placement_threshold,
            excluded_hosts=[worst],
        )
        return [
            Migration(vm_id=vm_id, dest_pm_id=pm_id)
            for vm_id, pm_id in plan.items()
        ]

    def _consolidate(self, observation: Observation) -> List[Migration]:
        datacenter = observation.datacenter
        active = datacenter.active_pm_ids()
        if len(active) < 2:
            return []
        lightest = min(active, key=datacenter.demanded_utilization)
        vms = sorted(datacenter.vms_on(lightest))
        plan = power_aware_best_fit(
            datacenter,
            vms,
            threshold=self.placement_threshold,
            excluded_hosts=[lightest],
        )
        if len(plan) != len(vms):
            return []
        return [
            Migration(vm_id=vm_id, dest_pm_id=pm_id)
            for vm_id, pm_id in plan.items()
        ]

    # ------------------------------------------------------------------
    def train(self, simulation, episodes: int = 3) -> None:
        """Offline training: replay the simulation's workload repeatedly.

        This is the "elaborate offline training" requirement the paper
        holds against Q-learning — it must happen *before* deployment.
        """
        if episodes < 1:
            raise ConfigurationError("episodes must be >= 1")
        self.training = True
        try:
            for _ in range(episodes):
                simulation.reset()
                self._last_state = None
                self._last_action = None
                simulation.run(self)
        finally:
            self.training = False
            self._last_state = None
            self._last_action = None
            simulation.reset()
