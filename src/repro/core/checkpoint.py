"""Megh agent and service checkpointing.

Megh is "oblivious to the training phase" — but a fleet operator still
wants to carry what an agent learned across restarts.  A checkpoint
captures the complete learner state: the sparse inverse operator ``B``
(as COO triplets — the paper's own storage format), the reward-weighted
sum ``z``, the exploration temperature, and the normalization statistics.

Version 2 additionally captures everything needed to *continue* a run
bit-identically: the exploration RNG states (policy and agent), the
previous decision's action indices, the forward-operator tracker (for
slot retirement in service mode), and — for
:func:`save_service`/:func:`load_service` — the service loop's full
runtime state (churn cursor, live VMs, in-flight migrations, SLA
windows, per-step metrics, cost totals).

Version-1 checkpoints still load, with a documented caveat: they carry
no RNG state, so the restored agent starts with **fresh RNGs** seeded by
the ``seed`` argument.  Continued runs are reproducible (the same seed
gives the same continuation) but will not bitwise-match the original
uninterrupted trajectory; a :class:`UserWarning` says so at load time.

Checkpoints are NPZ files; loading restores an agent that continues
exactly where the saved one stopped (verified by tests).
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.config import MeghConfig
from repro.core.agent import MeghScheduler
from repro.errors import ConfigurationError

#: Format marker.  Version 2 adds RNG states, the operator tracker and
#: the optional service-state payload; version 1 is still readable.
CHECKPOINT_VERSION = 2

#: NPZ keys each checkpoint version must carry, checked by name once the
#: version is known.  ``config_repr`` is informational;
#: ``policy_rng_state`` and the ``op_*`` triplets are conditional and
#: checked where used.
_V1_KEYS = frozenset(
    {
        "version",
        "num_vms",
        "num_pms",
        "beta",
        "b_rows",
        "b_cols",
        "b_values",
        "z_indices",
        "z_values",
        "temperature",
        "steps_seen",
        "cost_running_mean",
        "costs_seen",
        "gamma",
    }
)
_REQUIRED_KEYS = {
    1: _V1_KEYS,
    2: _V1_KEYS
    | {
        "agent_rng_state",
        "prev_action_indices",
        "has_last_normalized_cost",
        "last_normalized_cost",
        "dynamic_slots",
        "updates_applied",
        "updates_skipped",
        "retirements_applied",
        "retirements_skipped",
        "qtable_steps",
        "qtable_nnz",
        "operator_tracking",
    },
}
_OPERATOR_KEYS = frozenset({"op_rows", "op_cols", "op_values"})


def _rng_state_json(rng: np.random.Generator) -> str:
    """A Generator's full bit-generator state as canonical JSON."""
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def _set_rng_state(rng: np.random.Generator, state_json: str) -> None:
    rng.bit_generator.state = json.loads(state_json)


def _agent_payload(agent: MeghScheduler) -> Dict[str, np.ndarray]:
    """The agent's full state as NPZ-ready arrays (version 2 layout)."""
    # Force a full flush of any staged rank-1 updates so the serialized
    # COO triplets are the settled matrix and the checkpoint format (and
    # its byte-equality contract) is independent of REPRO_KERNEL.
    agent.lstd.B.flush_pending()
    rows, cols, values = [], [], []
    for i, j, value in agent.lstd.B.items():
        rows.append(i)
        cols.append(j)
        values.append(value)
    z_indices = list(agent.lstd.z.keys())
    z_values = [agent.lstd.z[i] for i in z_indices]
    config = agent.config
    last_normalized = agent._last_normalized_cost
    payload: Dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "num_vms": np.array(agent.action_space.num_vms),
        "num_pms": np.array(agent.action_space.num_pms),
        "beta": np.array(agent.beta),
        "b_rows": np.array(rows, dtype=np.int64),
        "b_cols": np.array(cols, dtype=np.int64),
        "b_values": np.array(values, dtype=np.float64),
        "z_indices": np.array(z_indices, dtype=np.int64),
        "z_values": np.array(z_values, dtype=np.float64),
        "temperature": np.array(agent.policy.temperature),
        "steps_seen": np.array(agent._steps_seen),
        "cost_running_mean": np.array(agent._cost_running_mean),
        "costs_seen": np.array(agent._costs_seen),
        "gamma": np.array(config.gamma),
        "config_repr": np.array(repr(config)),
        # ---- version-2 fields ----
        "agent_rng_state": np.array(_rng_state_json(agent._rng)),
        "prev_action_indices": np.array(
            agent._previous_action_indices, dtype=np.int64
        ),
        "has_last_normalized_cost": np.array(last_normalized is not None),
        "last_normalized_cost": np.array(
            0.0 if last_normalized is None else float(last_normalized)
        ),
        "dynamic_slots": np.array(bool(agent.dynamic_slots)),
        "updates_applied": np.array(agent.lstd.updates_applied),
        "updates_skipped": np.array(agent.lstd.updates_skipped),
        "retirements_applied": np.array(agent.lstd.retirements_applied),
        "retirements_skipped": np.array(agent.lstd.retirements_skipped),
        "qtable_steps": np.array(
            [step for step, _ in agent.qtable.samples], dtype=np.int64
        ),
        "qtable_nnz": np.array(
            [nnz for _, nnz in agent.qtable.samples], dtype=np.int64
        ),
    }
    policy_rng = getattr(agent.policy, "_rng", None)
    if policy_rng is not None:
        payload["policy_rng_state"] = np.array(_rng_state_json(policy_rng))
    tracking = agent.lstd.operator_tracking_enabled
    payload["operator_tracking"] = np.array(bool(tracking))
    if tracking:
        entries = agent.lstd.operator_entries()
        payload["op_rows"] = np.array(
            [i for i, _, _ in entries], dtype=np.int64
        )
        payload["op_cols"] = np.array(
            [j for _, j, _ in entries], dtype=np.int64
        )
        payload["op_values"] = np.array(
            [v for _, _, v in entries], dtype=np.float64
        )
    return payload


def save_agent(agent: MeghScheduler, path: str) -> None:
    """Write the agent's full learner state to an NPZ checkpoint."""
    np.savez_compressed(path, **_agent_payload(agent))


def _load_npz(path: str) -> Dict[str, np.ndarray]:
    """Every member of a checkpoint NPZ, decompressed up front.

    ``np.load`` opens an archive lazily, so members are read inside the
    guarded block: a corrupt member raises :class:`ConfigurationError`
    here rather than a ``zlib.error`` from the restore code later.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"no such checkpoint: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            data = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    if "version" not in data:
        raise ConfigurationError(f"{path} is not a Megh checkpoint")
    return data


def _require_keys(
    data: Dict[str, np.ndarray], path: str, keys: FrozenSet[str], what: str
) -> None:
    missing = keys - data.keys()
    if missing:
        raise ConfigurationError(
            f"{path}: {what} lacks field(s) {', '.join(sorted(missing))}"
        )


def _restore_agent(
    data: Dict[str, np.ndarray],
    path: str,
    config: MeghConfig | None,
    seed: int,
    contracts=None,
) -> MeghScheduler:
    version = int(data["version"])
    if version not in (1, CHECKPOINT_VERSION):
        raise ConfigurationError(
            f"checkpoint version {version} not supported "
            f"(expected 1 or {CHECKPOINT_VERSION})"
        )
    _require_keys(
        data, path, _REQUIRED_KEYS[version], f"version-{version} checkpoint"
    )
    effective = config or MeghConfig()
    saved_gamma = float(data["gamma"])
    if abs(saved_gamma - effective.gamma) > 1e-12:
        raise ConfigurationError(
            f"checkpoint was trained with gamma={saved_gamma}, "
            f"config has gamma={effective.gamma}"
        )
    dynamic_slots = version >= 2 and bool(data["dynamic_slots"])
    agent = MeghScheduler(
        num_vms=int(data["num_vms"]),
        num_pms=int(data["num_pms"]),
        config=effective,
        beta=float(data["beta"]),
        seed=seed,
        contracts=contracts,
        dynamic_slots=dynamic_slots,
    )
    # Learned state: rebuild B from triplets, z from its sparse pairs.
    lstd = agent.lstd
    lstd.B = type(lstd.B)(lstd.dimension)
    for i, j, value in zip(data["b_rows"], data["b_cols"], data["b_values"]):
        lstd.B.set(int(i), int(j), float(value))
    lstd.z = {
        int(i): float(v)
        for i, v in zip(data["z_indices"], data["z_values"])
    }
    agent.policy.temperature = float(data["temperature"])
    agent._steps_seen = int(data["steps_seen"])
    agent._cost_running_mean = float(data["cost_running_mean"])
    agent._costs_seen = int(data["costs_seen"])
    if version == 1:
        warnings.warn(
            f"{path} is a version-1 checkpoint with no exploration RNG "
            f"state; the restored agent starts with fresh RNGs seeded "
            f"by seed={seed}.  Continued runs are reproducible but will "
            f"not bitwise-match the original uninterrupted trajectory.",
            UserWarning,
            stacklevel=3,
        )
        return agent
    # ---- version-2 state: RNGs, decision context, operator tracker ----
    _set_rng_state(agent._rng, str(data["agent_rng_state"][()]))
    policy_rng = getattr(agent.policy, "_rng", None)
    if policy_rng is not None and "policy_rng_state" in data:
        _set_rng_state(policy_rng, str(data["policy_rng_state"][()]))
    agent._previous_action_indices = [
        int(i) for i in data["prev_action_indices"]
    ]
    if bool(data["has_last_normalized_cost"]):
        agent._last_normalized_cost = float(data["last_normalized_cost"])
    else:
        agent._last_normalized_cost = None
    agent.qtable.samples = [
        (int(step), int(nnz))
        for step, nnz in zip(data["qtable_steps"], data["qtable_nnz"])
    ]
    lstd.updates_applied = int(data["updates_applied"])
    lstd.updates_skipped = int(data["updates_skipped"])
    lstd.retirements_applied = int(data["retirements_applied"])
    lstd.retirements_skipped = int(data["retirements_skipped"])
    if bool(data["operator_tracking"]):
        _require_keys(
            data, path, _OPERATOR_KEYS, "operator-tracking checkpoint"
        )
        if not lstd.operator_tracking_enabled:
            lstd.enable_operator_tracking()
        lstd.load_operator_entries(
            list(
                zip(
                    (int(i) for i in data["op_rows"]),
                    (int(j) for j in data["op_cols"]),
                    (float(v) for v in data["op_values"]),
                )
            )
        )
        if agent.auditor is not None:
            agent.auditor.rebuild_mirror(lstd.operator_entries())
    return agent


def load_agent(
    path: str,
    config: MeghConfig | None = None,
    seed: int = 0,
) -> MeghScheduler:
    """Restore an agent from a checkpoint written by :func:`save_agent`.

    ``config`` lets the caller adjust non-learned hyper-parameters (e.g.
    the migration cap); learned state and the exploration temperature
    come from the checkpoint.  The checkpoint's gamma must match the
    config's — mixing discount factors would corrupt ``B``.

    Version-2 checkpoints restore the exploration RNG states, so the
    continuation is bitwise the uninterrupted trajectory.  Version-1
    checkpoints lack RNG state; loading one warns and seeds fresh RNGs
    from ``seed`` (reproducible, but a different trajectory).
    """
    return _restore_agent(_load_npz(path), path, config, seed)


# ----------------------------------------------------------------------
# Service checkpoints: agent + service-loop runtime in one NPZ
# ----------------------------------------------------------------------


def save_service(
    agent: MeghScheduler,
    path: str,
    service_state: Dict[str, Any],
    service_arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Write a combined agent + service-runtime checkpoint.

    ``service_state`` is the JSON-safe dict from
    :meth:`repro.service.loop.ServiceSimulation.snapshot`;
    ``service_arrays`` holds its exact-precision companions (the monitor
    rings).  The agent payload is always version 2 — resuming requires
    the RNG states.
    """
    if not hasattr(agent, "lstd"):
        raise ConfigurationError(
            "service checkpoints require a learner-bearing scheduler"
        )
    payload = _agent_payload(agent)
    payload["service_state"] = np.array(
        json.dumps(service_state), dtype=np.str_
    )
    for key, array in (service_arrays or {}).items():
        if key in payload:
            raise ConfigurationError(
                f"service array key {key!r} collides with the agent "
                f"payload"
            )
        payload[key] = np.asarray(array)
    np.savez_compressed(path, **payload)


def load_service(
    path: str,
    config: MeghConfig | None = None,
    seed: int = 0,
    service=None,
    contracts=None,
) -> Tuple[Any, MeghScheduler]:
    """Restore ``(service, agent)`` from a :func:`save_service` NPZ.

    The service is rebuilt from the registry spec stored in the
    checkpoint (builder name + params + seed) unless a freshly-built
    ``service`` is supplied; either way it is armed to continue from the
    stored step — call ``service.run(agent, ...)`` to finish the run.
    """
    data = _load_npz(path)
    if "service_state" not in data:
        raise ConfigurationError(
            f"{path} is an agent-only checkpoint (no service state)"
        )
    if int(data["version"]) < 2:
        raise ConfigurationError(
            "service checkpoints require the version-2 format"
        )
    state = json.loads(str(data["service_state"][()]))
    agent = _restore_agent(data, path, config, seed, contracts=contracts)
    if service is None:
        spec = state.get("spec")
        if not spec:
            raise ConfigurationError(
                "checkpoint carries no registry spec; pass an "
                "equivalently-built service= explicitly"
            )
        from repro.engine.registry import resolve_builder

        builder = resolve_builder(spec["builder"])
        service = builder(seed=spec["seed"], **spec.get("params", {}))
    rings = {
        key: data[key]
        for key in data
        if key.startswith("service_") and key != "service_state"
    }
    service._install_resume(state, rings)
    return service, agent
