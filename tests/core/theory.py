"""Numerical validation of the paper's Theorems 1 and 2.

* **Theorem 1** (unique projection): there exists a unique
  ``theta in R^d`` with ``V(s) = theta^T phi_pi(s)``.  With Megh's
  one-hot basis, the matrix stacking the basis vectors of any policy's
  action choices has full rank whenever the choices are distinct —
  :func:`projection_matrix` builds it and
  :func:`verify_unique_projection` checks invertibility and recovers the
  unique ``theta`` for a given value assignment.

* **Theorem 2** (convergence): the Bellman update
  ``(Mv)(s) = min_{s'} E[C(s, s') + gamma v(s')]`` is a
  ``gamma``-contraction in the sup norm, so value iteration converges to
  a unique fixed point.  :func:`verify_contraction` samples random value
  functions on a random reachability structure and measures the worst
  observed ratio ``||Mv - Mu|| / ||v - u||``;
  :func:`fixed_point_iteration` exhibits the geometric convergence.

These are the proof obligations, checked numerically; the tests in
``tests/core/test_dense_checkpoint_theory.py`` pin them down.  Nothing
in ``src/`` depends on them, so they live with that test.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mdp.action import ActionSpace, MigrationAction


def projection_matrix(
    action_space: ActionSpace, policy_actions: Sequence[MigrationAction]
) -> np.ndarray:
    """Stack ``phi_{pi(s^i)}`` rows for the states' policy choices.

    Theorem 1's ``Psi``: row ``i`` is the basis vector of the action the
    policy takes in reachable state ``s^i``.
    """
    matrix = np.zeros((len(policy_actions), action_space.dimension))
    for row, action in enumerate(policy_actions):
        matrix[row, action_space.index(action)] = 1.0
    return matrix


def verify_unique_projection(
    action_space: ActionSpace,
    policy_actions: Sequence[MigrationAction],
    values: Sequence[float],
) -> Tuple[bool, np.ndarray]:
    """Check Theorem 1 on a concrete instance.

    Returns ``(unique, theta)``: ``unique`` is true when the policy's
    action choices are distinct (the stacked one-hot rows are linearly
    independent), in which case ``theta`` reproduces ``values`` exactly
    via ``Psi theta = V`` and is the *minimum-norm* such vector.
    """
    if len(policy_actions) != len(values):
        raise ConfigurationError("need one value per policy action")
    psi = projection_matrix(action_space, policy_actions)
    rank = int(np.linalg.matrix_rank(psi))
    unique = rank == len(policy_actions)
    theta, *_ = np.linalg.lstsq(psi, np.asarray(values, dtype=np.float64), rcond=None)
    return unique, theta


def random_reachability(
    num_states: int, branching: int, rng: np.random.Generator
) -> List[List[int]]:
    """Random successor sets: each state reaches ``branching`` states.

    Models the paper's ``S_s`` — the states one migration away.
    """
    if num_states < 1 or branching < 1:
        raise ConfigurationError("need >= 1 state and branching")
    successors = []
    for _ in range(num_states):
        successors.append(
            sorted(
                int(s)
                for s in rng.choice(
                    num_states, size=min(branching, num_states), replace=False
                )
            )
        )
    return successors


def bellman_operator(
    values: np.ndarray,
    costs: np.ndarray,
    successors: Sequence[Sequence[int]],
    gamma: float,
) -> np.ndarray:
    """Apply ``(Mv)(s) = min_{s' in S_s} [C(s, s') + gamma v(s')]``."""
    if not 0 <= gamma < 1:
        raise ConfigurationError("gamma must be in [0, 1)")
    updated = np.empty_like(values, dtype=np.float64)
    for state, options in enumerate(successors):
        updated[state] = min(
            costs[state, nxt] + gamma * values[nxt] for nxt in options
        )
    return updated


def verify_contraction(
    num_states: int = 12,
    branching: int = 4,
    gamma: float = 0.5,
    trials: int = 50,
    seed: int = 0,
) -> float:
    """Worst observed ``||Mv - Mu||_inf / ||v - u||_inf`` over random pairs.

    Theorem 2 requires this to be at most ``gamma``; the return value
    lets callers assert it with a numerical margin.
    """
    rng = np.random.default_rng(seed)
    successors = random_reachability(num_states, branching, rng)
    costs = rng.uniform(0.1, 2.0, size=(num_states, num_states))
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(0.0, 5.0, size=num_states)
        u = rng.normal(0.0, 5.0, size=num_states)
        gap = float(np.max(np.abs(v - u)))
        if gap <= 0.0:
            continue
        mv = bellman_operator(v, costs, successors, gamma)
        mu = bellman_operator(u, costs, successors, gamma)
        ratio = float(np.max(np.abs(mv - mu))) / gap
        worst = max(worst, ratio)
    return worst


def fixed_point_iteration(
    num_states: int = 12,
    branching: int = 4,
    gamma: float = 0.5,
    iterations: int = 60,
    seed: int = 0,
) -> Tuple[np.ndarray, List[float]]:
    """Iterate ``v <- Mv`` from zero; returns ``(v*, residual history)``.

    The residuals ``||v_{k+1} - v_k||_inf`` must decay geometrically at
    rate ``gamma`` — the convergence Theorem 2 promises Algorithm 1
    inherits from LSPI.
    """
    rng = np.random.default_rng(seed)
    successors = random_reachability(num_states, branching, rng)
    costs = rng.uniform(0.1, 2.0, size=(num_states, num_states))
    values = np.zeros(num_states)
    residuals: List[float] = []
    for _ in range(iterations):
        updated = bellman_operator(values, costs, successors, gamma)
        residuals.append(float(np.max(np.abs(updated - values))))
        values = updated
    return values, residuals
