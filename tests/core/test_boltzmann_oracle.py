"""Segmented Boltzmann selection against the per-row oracle.

``BoltzmannPolicy.select_rows`` samples every row of a candidate plan
in one array pass and ``MeghScheduler._select_from_plan`` ranks the
moves with one ``lexsort``; ``tests/oracles/boltzmann.py`` draws one
``Generator.choice`` per row and ranks with a tuple sort.  Twin
policies with the same seed must make the same picks and leave their
generators in the same state, on random segmented Q with ties, signed
zeros, one-element and 800-wide rows, temperatures down to the floor
and spreads that underflow every weight but the minimum's.
"""

import functools
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.core.candidates import CandidatePlan
from repro.core.exploration import BoltzmannPolicy, EpsilonGreedyPolicy
from repro.errors import ConfigurationError

from tests.oracles import boltzmann as oracle

MIN_TEMPERATURE = MeghConfig().min_temperature
NUM_PMS = 5

temperatures = st.one_of(
    st.just(MIN_TEMPERATURE),
    st.floats(min_value=MIN_TEMPERATURE, max_value=5.0),
)
q_scalars = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.01, 1e-300, 5e3]),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
narrow_rows = st.lists(q_scalars, min_size=1, max_size=8)


@st.composite
def wide_rows(draw) -> List[float]:
    """Up to 800 values from a seeded generator: a few distinct levels
    (ties, signed zeros) or a spread wide enough to underflow."""
    width = draw(st.integers(min_value=1, max_value=800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        levels = np.array([0.0, -0.0, 0.5, 1.0, -2.0])
        return levels[rng.integers(0, levels.size, width)].tolist()
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    return (rng.standard_normal(width) * scale).tolist()


rows_lists = st.lists(
    st.one_of(narrow_rows, narrow_rows, wide_rows()), min_size=1, max_size=40
)


def segmented(rows: List[List[float]]) -> Tuple[np.ndarray, np.ndarray]:
    q_values = np.array([q for row in rows for q in row], dtype=np.float64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(row) for row in rows])
    return q_values, offsets


def twin_policies(temperature: float, seed: int):
    return tuple(
        BoltzmannPolicy(
            initial_temperature=temperature,
            min_temperature=MIN_TEMPERATURE,
            seed=seed,
        )
        for _ in range(2)
    )


def rng_state(policy):
    return policy._rng.bit_generator.state


class TestSelectRows:
    @settings(max_examples=150, deadline=None)
    @given(rows=rows_lists, temperature=temperatures, seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_choice(self, rows, temperature, seed):
        q_values, offsets = segmented(rows)
        fast, slow = twin_policies(temperature, seed)
        for _ in range(2):  # the streams stay aligned across calls
            picks = fast.select_rows(q_values, offsets)
            assert picks.tolist() == oracle.select_rows(slow, q_values, offsets)
            assert rng_state(fast) == rng_state(slow)

    @settings(max_examples=60, deadline=None)
    @given(row=narrow_rows, temperature=temperatures, seed=st.integers(0, 2**32 - 1))
    def test_select_is_one_row(self, row, temperature, seed):
        fast, slow = twin_policies(temperature, seed)
        actions = [f"a{i}" for i in range(len(row))]
        action, index = fast.select(actions, row)
        assert index == oracle.choose(slow, np.asarray(row))
        assert action == actions[index]
        assert rng_state(fast) == rng_state(slow)

    @settings(max_examples=60, deadline=None)
    @given(rows=rows_lists, data=st.data())
    def test_nan_raises_in_both(self, rows, data):
        q_values, offsets = segmented(rows)
        q_values[data.draw(st.integers(0, q_values.size - 1))] = np.nan
        fast, slow = twin_policies(1.0, 0)
        with pytest.raises(ValueError):
            fast.select_rows(q_values, offsets)
        with pytest.raises(ValueError):
            oracle.select_rows(slow, q_values, offsets)

    def test_underflow_keeps_the_minimisers(self):
        policy = BoltzmannPolicy(
            initial_temperature=MIN_TEMPERATURE,
            min_temperature=MIN_TEMPERATURE,
        )
        q_values = np.array([0.0, 1e4, -0.0, 1e4, 3.0, 2.0])
        offsets = np.array([0, 4, 6])
        for _ in range(50):
            first, second = policy.select_rows(q_values, offsets).tolist()
            assert first in (0, 2)
            assert second == 1

    def test_empty_row_rejected(self):
        policy = BoltzmannPolicy()
        with pytest.raises(ConfigurationError):
            policy.select_rows(np.array([1.0, 2.0]), np.array([0, 0, 2]))
        with pytest.raises(ConfigurationError):
            oracle.select_rows(
                BoltzmannPolicy(), np.array([1.0, 2.0]), np.array([0, 0, 2])
            )

    def test_offsets_must_span_q_values(self):
        with pytest.raises(ConfigurationError):
            BoltzmannPolicy().select_rows(np.array([1.0, 2.0]), np.array([0, 1]))

    def test_no_rows_draws_nothing(self):
        policy = BoltzmannPolicy(seed=3)
        before = rng_state(policy)
        assert policy.select_rows(np.zeros(0), np.array([0])).size == 0
        assert rng_state(policy) == before


@st.composite
def plans(draw):
    """A candidate plan plus its flat Q: random sources, destinations
    that sometimes equal the source, mixed relief and consolidation
    rows."""
    rows = draw(rows_lists)
    q_values, offsets = segmented(rows)
    num_rows = len(rows)
    sources = np.array(
        draw(st.lists(st.integers(0, NUM_PMS - 1), min_size=num_rows, max_size=num_rows)),
        dtype=np.int64,
    )
    mandatory = np.array(
        draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows)),
        dtype=bool,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dest_pm = rng.integers(0, NUM_PMS, q_values.size).astype(np.int64)
    vm_ids = rng.permutation(num_rows).astype(np.int64)
    plan = CandidatePlan(
        vm_ids=vm_ids,
        sources=sources,
        mandatory=mandatory,
        dest_pm=dest_pm,
        offsets=offsets,
        action_indices=np.repeat(vm_ids, np.diff(offsets)) * NUM_PMS + dest_pm,
        num_pms=NUM_PMS,
    )
    return plan, q_values


def stub_agent(num_vms: int, temperature: float, seed: int, q_values):
    """An agent whose learner scores the plan with ``q_values``."""
    agent = MeghScheduler(
        num_vms=num_vms, num_pms=NUM_PMS, seed=seed, contracts=False
    )
    agent.policy.temperature = temperature
    agent.lstd.q_values = lambda indices: q_values.copy()
    return agent


def twin_agents(num_vms: int, temperature: float, seed: int, q_values):
    return [stub_agent(num_vms, temperature, seed, q_values) for _ in range(2)]


class TestSelectFromPlan:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=plans(),
        num_vms=st.integers(min_value=40, max_value=250),
        temperature=temperatures,
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_per_row_loop(self, drawn, num_vms, temperature, seed):
        plan, q_values = drawn
        fast, slow = twin_agents(num_vms, temperature, seed, q_values)
        moves, noops = fast._select_from_plan(plan)
        expected_moves, expected_noops = oracle.select_from_plan(slow, plan)
        assert oracle.as_bits(moves) == oracle.as_bits(expected_moves)
        assert oracle.as_bits(noops) == oracle.as_bits(expected_noops)
        assert rng_state(fast.policy) == rng_state(slow.policy)

    @settings(max_examples=40, deadline=None)
    @given(drawn=plans(), data=st.data())
    def test_nan_raises_in_both(self, drawn, data):
        plan, q_values = drawn
        q_values[data.draw(st.integers(0, q_values.size - 1))] = np.nan
        fast, slow = twin_agents(50, 1.0, 0, q_values)
        with pytest.raises(ValueError):
            fast._select_from_plan(plan)
        with pytest.raises(ValueError):
            oracle.select_from_plan(slow, plan)

    def test_more_moves_than_the_cap(self):
        # Ten real moves, no no-ops, a cap of one: the relief move with
        # the lowest Q wins, ties broken by row order.
        q_values = np.array([3.0, 1.0, 1.0, 2.0, 0.5] * 2)
        offsets = np.arange(11)
        mandatory = np.array([True, True, True, False, False] * 2)
        plan = CandidatePlan(
            vm_ids=np.arange(10),
            sources=np.zeros(10, dtype=np.int64),
            mandatory=mandatory,
            dest_pm=np.ones(10, dtype=np.int64),
            offsets=offsets,
            action_indices=np.arange(10) * NUM_PMS + 1,
            num_pms=NUM_PMS,
        )
        agent = stub_agent(10, 1.0, 0, q_values)
        moves, noops = agent._select_from_plan(plan)
        assert noops == []
        assert moves == [(1, 1, 1.0, 1 * NUM_PMS + 1)]


def _run(seed: int, routed: bool, policy=None, pick=oracle.choose):
    from repro.core.trace import DecisionTrace
    from repro.harness.builders import build_planetlab_simulation
    from repro.harness.runner import run_scheduler

    simulation = build_planetlab_simulation(
        num_pms=10, num_vms=16, num_steps=60, seed=seed
    )
    scheduler = MeghScheduler.from_simulation(
        simulation,
        config=MeghConfig(candidate_destinations=0),
        seed=seed,
        contracts=False,
    )
    if policy is not None:
        scheduler.policy = policy()
    if routed:
        scheduler._select_from_plan = functools.partial(
            oracle.select_from_plan, scheduler, pick=pick
        )
    scheduler.trace = DecisionTrace()
    result = run_scheduler(simulation, scheduler)
    return scheduler, result


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_run_matches_the_oracle(seed):
    fast, fast_result = _run(seed, routed=False)
    slow, slow_result = _run(seed, routed=True)
    assert fast.trace.records == slow.trace.records
    assert fast_result.total_cost_usd == slow_result.total_cost_usd
    assert fast_result.total_migrations == slow_result.total_migrations
    assert rng_state(fast.policy) == rng_state(slow.policy)


def test_epsilon_greedy_rows_match_per_row_select():
    def policy():
        return EpsilonGreedyPolicy(epsilon=0.3, seed=0)

    def pick(policy, q_values):
        return policy.select(q_values, q_values)[1]

    fast, fast_result = _run(0, routed=False, policy=policy)
    slow, slow_result = _run(0, routed=True, policy=policy, pick=pick)
    assert fast.trace.records == slow.trace.records
    assert fast_result.total_cost_usd == slow_result.total_cost_usd
    assert rng_state(fast.policy) == rng_state(slow.policy)
