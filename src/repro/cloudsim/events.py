"""Structured simulation event log.

Debugging a scheduler means asking "what exactly happened at step 412?".
:class:`EventLog` records typed events — migrations started, completed,
rejected; hosts overloaded, slept, woken; faults — with their step and
payload, supports filtered queries, and round-trips through JSON Lines
for offline analysis.

The simulation driver emits into a log passed to
:meth:`Simulation.run(event_log=...) <repro.cloudsim.simulation.Simulation.run>`;
schedulers and tests may also emit their own events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError


class EventKind(str, Enum):
    """Event taxonomy."""

    MIGRATION_STARTED = "migration_started"
    MIGRATION_COMPLETED = "migration_completed"
    MIGRATION_REJECTED = "migration_rejected"
    HOST_OVERLOADED = "host_overloaded"
    HOST_SLEPT = "host_slept"
    HOST_WOKEN = "host_woken"
    HOST_FAILED = "host_failed"
    HOST_REPAIRED = "host_repaired"
    VM_DISPLACED = "vm_displaced"
    # VM lifecycle (service-mode churn; see repro.service).
    VM_CREATED = "vm_created"
    VM_RESIZED = "vm_resized"
    VM_DELETED = "vm_deleted"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Event:
    """One logged event: a step, a kind, and a flat payload."""

    step: int
    kind: EventKind
    payload: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"step": self.step, "kind": self.kind.value, **self.payload},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad event line: {exc}") from exc
        if not isinstance(data, dict) or not {"step", "kind"} <= data.keys():
            raise ConfigurationError("event line lacks step/kind")
        step = data.pop("step")
        if isinstance(step, bool) or not isinstance(step, int):
            raise ConfigurationError(f"event step {step!r} is not an integer")
        try:
            kind = EventKind(data.pop("kind"))
        except ValueError as exc:
            raise ConfigurationError(f"bad event line: {exc}") from exc
        return cls(step=step, kind=kind, payload=data)


class EventLog:
    """Append-only in-memory event store with filtered queries."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def emit(
        self, step: int, kind: EventKind, **payload: object
    ) -> Event:
        """Record an event and return it."""
        event = Event(step=step, kind=kind, payload=dict(payload))
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def query(
        self,
        kind: Optional[EventKind] = None,
        step: Optional[int] = None,
        vm_id: Optional[int] = None,
        pm_id: Optional[int] = None,
    ) -> List[Event]:
        """Events matching every given filter."""
        matches = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if step is not None and event.step != step:
                continue
            if vm_id is not None and event.payload.get("vm_id") != vm_id:
                continue
            if pm_id is not None and event.payload.get("pm_id") != pm_id:
                continue
            matches.append(event)
        return matches

    def counts(self) -> Dict[EventKind, int]:
        """Event count per kind."""
        totals: Dict[EventKind, int] = {}
        for event in self._events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals

    def save_jsonl(self, path: str) -> None:
        """Write the log as JSON Lines."""
        with open(path, "w") as handle:
            for event in self._events:
                handle.write(event.to_json())
                handle.write("\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "EventLog":
        """Load a log written by :meth:`save_jsonl`."""
        log = cls()
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    log._events.append(Event.from_json(line))
        return log
