"""The per-row Boltzmann loop: the oracle of ``BoltzmannPolicy.select_rows``
and ``MeghScheduler._select_from_plan``.

One candidate row at a time: the row's probabilities from
``BoltzmannPolicy.weights``, one ``Generator.choice(len(row), p=...)``
draw, then a tuple sort ranking the moves by ``(not mandatory, q)``.
Totals are summed with an explicit left-to-right loop: Python 3.12's
float ``sum()`` is compensated, and the loop is the accumulation order
the decisions were recorded with.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.errors import ConfigurationError


def left_to_right_sum(values: Sequence[float]) -> float:
    """``values[0] + values[1] + ...``, uncompensated."""
    total = 0.0
    for value in values:
        total += value
    return total


def probabilities(policy, q_values: Sequence[float]) -> List[float]:
    """One row's Boltzmann distribution."""
    weights = policy.weights(q_values)
    total = left_to_right_sum(weights)
    return [w / total for w in weights]


def choose(policy, q_values: Sequence[float]) -> int:
    """One scalar ``choice`` draw over one row."""
    if len(q_values) == 0:
        raise ConfigurationError("cannot select from an empty action set")
    return int(
        policy._rng.choice(len(q_values), p=probabilities(policy, q_values))
    )


def select_rows(policy, q_values, offsets) -> List[int]:
    """:func:`choose` over every row of a segmented Q vector."""
    return [
        choose(policy, q_values[int(offsets[r]) : int(offsets[r + 1])])
        for r in range(len(offsets) - 1)
    ]


def select_from_plan(
    agent,
    plan,
    pick: Callable[[object, Sequence[float]], int] = choose,
) -> Tuple[List[tuple], List[tuple]]:
    """``_select_from_plan`` one candidate row at a time.

    ``pick(policy, q_row)`` samples a row; the default is the scalar
    Boltzmann draw above.
    """
    flat_q = agent.lstd.q_values(plan.action_indices)
    offsets = plan.offsets
    dest_pm = plan.dest_pm
    picks: List[tuple] = []
    for r in range(plan.num_rows):
        start = int(offsets[r])
        end = int(offsets[r + 1])
        raw_q = flat_q[start:end]
        dests = dest_pm[start:end]
        source = int(plan.sources[r])
        mandatory = bool(plan.mandatory[r])
        if mandatory:
            q_values = raw_q.copy()
        else:
            q_values = raw_q + agent.config.migration_margin * (
                dests != source
            )
        index = pick(agent.policy, q_values)
        picks.append(
            (
                float(q_values[index]),
                int(plan.vm_ids[r]),
                int(dests[index]),
                float(raw_q[index]),
                int(plan.action_indices[start + index]),
                mandatory,
                source,
            )
        )
    max_moves = max(
        1,
        int(agent.config.max_migration_fraction * agent.action_space.num_vms),
    )
    noops = [
        (vm_id, dest, raw, flat)
        for _, vm_id, dest, raw, flat, _, source in picks
        if dest == source
    ]
    ranked = sorted(
        (
            (not mandatory, q, vm_id, dest, raw, flat)
            for q, vm_id, dest, raw, flat, mandatory, source in picks
            if dest != source
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    moves = [
        (vm_id, dest, raw, flat)
        for _, _, vm_id, dest, raw, flat in ranked[:max_moves]
    ]
    return moves, noops


def as_bits(entries: Sequence[tuple]) -> List[tuple]:
    """Selection entries with floats spelled bit for bit (``-0.0`` too)."""
    return [
        tuple(
            (type(value).__name__, float.hex(value))
            if isinstance(value, float)
            else (type(value).__name__, value)
            for value in entry
        )
        for entry in entries
    ]

