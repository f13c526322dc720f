"""VM churn: seeded lifecycle-event generation and trace replay.

A churn model turns a seed (or a JSONL trace) into a deterministic,
totally-ordered schedule of typed VM lifecycle events — create, resize,
delete — that the :class:`~repro.service.loop.ServiceSimulation` drains
step by step.  The schedule is generated *eagerly* from a dedicated RNG,
so checkpointing needs to store only a cursor into it, never RNG state.

Within a step events apply in ``delete < resize < create`` order (ties
broken by generation sequence): departures free slots and RAM that
same-step arrivals may then claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cloudsim.events import Event, EventKind
from repro.errors import ConfigurationError

__all__ = ["ChurnConfig", "ChurnEvent", "ChurnModel", "TraceChurnModel"]

#: Kind names used by :class:`ChurnEvent` and the JSONL trace format.
CREATE = "create"
RESIZE = "resize"
DELETE = "delete"

#: Within-step application order: departures first, arrivals last.
_KIND_PRIORITY: Dict[str, int] = {DELETE: 0, RESIZE: 1, CREATE: 2}

#: Capacity fields each kind carries (each must be finite and > 0).
_SIZE_FIELDS: Dict[str, Tuple[str, ...]] = {
    CREATE: ("mips", "ram_mb", "bandwidth_mbps"),
    RESIZE: ("mips",),
    DELETE: (),
}

#: JSONL trace event kinds (the :class:`EventKind` lifecycle taxonomy)
#: mapped onto churn kinds, so a saved service event log replays as a
#: trace.
_TRACE_KINDS: Dict[str, str] = {
    EventKind.VM_CREATED.value: CREATE,
    EventKind.VM_RESIZED.value: RESIZE,
    EventKind.VM_DELETED.value: DELETE,
}


@dataclass(frozen=True)
class ChurnConfig:
    """Arrival/holding-time distributions for generated churn.

    Attributes:
        arrival_rate: mean Poisson arrivals per observation interval.
        mean_lifetime_steps: mean geometric holding time, in intervals.
        initial_vms: arrivals injected at step 0 (the starting fleet).
        vm_mips_range: uniform range for a new VM's CPU capacity.
        vm_ram_range_mb: uniform range for a new VM's RAM.
        vm_bandwidth_mbps: network allocation of every VM.
        resize_probability: chance a VM schedules one mid-life CPU
            resize (RAM is never resized — migration cost stays fixed).
        resize_factor_range: uniform multiplier applied to the VM's
            MIPS by a resize event.
    """

    arrival_rate: float = 1.0
    mean_lifetime_steps: float = 48.0
    initial_vms: int = 8
    vm_mips_range: Tuple[float, float] = (500.0, 2500.0)
    vm_ram_range_mb: Tuple[float, float] = (613.0, 1740.0)
    vm_bandwidth_mbps: float = 100.0
    resize_probability: float = 0.15
    resize_factor_range: Tuple[float, float] = (0.6, 1.5)

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be >= 0")
        if self.mean_lifetime_steps < 1:
            raise ConfigurationError("mean_lifetime_steps must be >= 1")
        if self.initial_vms < 0:
            raise ConfigurationError("initial_vms must be >= 0")
        if not 0 <= self.resize_probability <= 1:
            raise ConfigurationError("resize_probability must be in [0, 1]")
        for low, high in (
            self.vm_mips_range,
            self.vm_ram_range_mb,
            self.resize_factor_range,
        ):
            if not 0 < low <= high:
                raise ConfigurationError(
                    f"range ({low}, {high}) must satisfy 0 < low <= high"
                )
        if self.vm_bandwidth_mbps <= 0:
            raise ConfigurationError("vm_bandwidth_mbps must be > 0")


@dataclass(frozen=True)
class ChurnEvent:
    """One lifecycle event against VM ``uid``.

    ``mips``/``ram_mb``/``bandwidth_mbps`` carry the new VM's capacities
    for a create; a resize uses only ``mips`` (the new CPU capacity);
    a delete carries no capacities.
    """

    step: int
    kind: str
    uid: int
    mips: float = 0.0
    ram_mb: float = 0.0
    bandwidth_mbps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_PRIORITY:
            raise ConfigurationError(f"unknown churn kind {self.kind!r}")
        if self.step < 0:
            raise ConfigurationError("step must be >= 0")
        for name in _SIZE_FIELDS[self.kind]:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{self.kind} of uid {self.uid} needs a finite "
                    f"{name} > 0, got {value!r}"
                )


def _ordered(
    tagged: List[Tuple[int, int, int, ChurnEvent]]
) -> List[ChurnEvent]:
    """Sort ``(step, priority, seq, event)`` tuples into schedule order."""
    tagged.sort(key=lambda item: item[:3])
    return [event for _, _, _, event in tagged]


class ChurnModel:
    """Seeded generator: Poisson arrivals, geometric holding times.

    The full schedule for ``num_steps`` intervals is drawn up front from
    ``np.random.default_rng(seed)`` in a fixed draw order, so two models
    with the same ``(config, num_steps, seed)`` produce identical
    schedules and a resumed run can rejoin the schedule by cursor alone.

    VM uids are assigned in arrival order starting at 0 and never
    reused; the service loop maps them onto basis slots.
    """

    def __init__(
        self, config: ChurnConfig, num_steps: int, seed: int = 0
    ) -> None:
        if num_steps < 1:
            raise ConfigurationError("num_steps must be >= 1")
        self.config = config
        self.num_steps = num_steps
        self.seed = seed
        rng = np.random.default_rng(seed)
        tagged: List[Tuple[int, int, int, ChurnEvent]] = []
        seq = 0
        uid = 0
        for step in range(num_steps):
            if step == 0:
                arrivals = config.initial_vms
            else:
                arrivals = int(rng.poisson(config.arrival_rate))
            for _ in range(arrivals):
                mips = float(rng.uniform(*config.vm_mips_range))
                ram_mb = float(rng.uniform(*config.vm_ram_range_mb))
                lifetime = int(
                    rng.geometric(1.0 / config.mean_lifetime_steps)
                )
                tagged.append(
                    (
                        step,
                        _KIND_PRIORITY[CREATE],
                        seq,
                        ChurnEvent(
                            step=step,
                            kind=CREATE,
                            uid=uid,
                            mips=mips,
                            ram_mb=ram_mb,
                            bandwidth_mbps=config.vm_bandwidth_mbps,
                        ),
                    )
                )
                seq += 1
                if (
                    lifetime >= 2
                    and rng.random() < config.resize_probability
                ):
                    offset = int(rng.integers(1, lifetime))
                    factor = float(
                        rng.uniform(*config.resize_factor_range)
                    )
                    resize_step = step + offset
                    if resize_step < num_steps:
                        tagged.append(
                            (
                                resize_step,
                                _KIND_PRIORITY[RESIZE],
                                seq,
                                ChurnEvent(
                                    step=resize_step,
                                    kind=RESIZE,
                                    uid=uid,
                                    mips=mips * factor,
                                ),
                            )
                        )
                        seq += 1
                delete_step = step + lifetime
                if delete_step < num_steps:
                    tagged.append(
                        (
                            delete_step,
                            _KIND_PRIORITY[DELETE],
                            seq,
                            ChurnEvent(
                                step=delete_step, kind=DELETE, uid=uid
                            ),
                        )
                    )
                    seq += 1
                uid += 1
        self.events: List[ChurnEvent] = _ordered(tagged)

    def __len__(self) -> int:
        return len(self.events)


class TraceChurnModel:
    """Churn replayed from recorded lifecycle events.

    Accepts the JSONL format written by
    :meth:`~repro.cloudsim.events.EventLog.save_jsonl` — lines whose
    ``kind`` is ``vm_created``/``vm_resized``/``vm_deleted`` become the
    schedule (other event kinds are ignored), so a previous service run's
    event log replays directly.  Every lifecycle line must carry
    an integer ``uid``; creates must carry ``mips``/``ram_mb``/
    ``bandwidth_mbps`` and resizes ``mips``, each a finite number > 0.
    A malformed line raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, events: Sequence[ChurnEvent], num_steps: int) -> None:
        if num_steps < 1:
            raise ConfigurationError("num_steps must be >= 1")
        self.num_steps = num_steps
        tagged = [
            (event.step, _KIND_PRIORITY[event.kind], seq, event)
            for seq, event in enumerate(events)
        ]
        self.events: List[ChurnEvent] = _ordered(tagged)
        for event in self.events:
            if event.step >= num_steps:
                raise ConfigurationError(
                    f"trace event at step {event.step} is beyond the "
                    f"{num_steps}-step horizon"
                )

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_jsonl(cls, path: str, num_steps: int) -> "TraceChurnModel":
        """Parse a lifecycle trace written as JSON Lines."""
        churn_events: List[ChurnEvent] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = Event.from_json(line)
                kind = _TRACE_KINDS.get(event.kind.value)
                if kind is None:
                    continue
                churn_events.append(_from_trace_event(event, kind))
        return cls(churn_events, num_steps=num_steps)


def _from_trace_event(event: Event, kind: str) -> ChurnEvent:
    payload = event.payload
    if "uid" not in payload:
        raise ConfigurationError(
            f"lifecycle event at step {event.step} lacks a uid"
        )
    uid = payload["uid"]
    if isinstance(uid, bool) or not isinstance(uid, int):
        raise ConfigurationError(
            f"lifecycle event at step {event.step} has a non-integer "
            f"uid {uid!r}"
        )
    sizes: Dict[str, float] = {}
    for name in _SIZE_FIELDS[kind]:
        if name not in payload:
            raise ConfigurationError(
                f"{event.kind.value} for uid {uid} lacks {name}"
            )
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{event.kind.value} for uid {uid}: {name}={value!r} "
                "is not a number"
            )
        sizes[name] = float(value)
    return ChurnEvent(step=event.step, kind=kind, uid=uid, **sizes)
