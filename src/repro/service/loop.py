"""Event-driven service loop: churn, stepping, checkpointed learning.

:class:`ServiceSimulation` is the long-running counterpart of the batch
:class:`~repro.cloudsim.simulation.Simulation`.  Instead of replaying a
fixed-fleet workload, each observation interval drains a deterministic
event queue:

1. **lifecycle events** from the churn schedule with ``step <= t`` —
   departures cancel in-flight migrations, clear the slot, retire the
   learner's block and return the slot to the
   :class:`~repro.core.basis.VmSlotPool`; arrivals claim the lowest free
   slot and join the placement queue; resizes rescale a VM's CPU;
2. **placement** of queued arrivals, first-fit in host-id order;
3. **demand**: every live VM's utilization for this step, one step of
   a per-VM random walk that is a pure function of
   ``(workload_seed, uid)`` — a walk rebuilt after a checkpoint restore
   catches up to its position on its first step, bit-identically;
4. **utilization scans** (``monitor.observe``) on scan ticks;
5. **scheduler decisions** on decide ticks, fed the cost accumulated
   since the previous tick;
6. one :class:`~repro.cloudsim.simulation.StepPipeline` step — the
   pipeline the batch driver runs too: CPU sharing, migration advance,
   SLA accounting, step cost, host sleep, metrics — with no wall clock,
   so ``scheduler_seconds`` is 0.0 and results are wall-clock-free;
7. **checkpointing** on the configured cadence.

Bit-identity contract
---------------------
A run interrupted at step *k* and resumed from its checkpoint produces a
``SimulationResult.to_dict()`` byte-identical to the uninterrupted run.
Everything order- or state-bearing is captured: the churn cursor (the
schedule itself is regenerated from the seed), live-VM insertion order,
the migration engine's in-flight *insertion order* (it determines the
SLA accountant's first-seen record order), monitor rings, SLA windows,
per-step metrics and cost-model totals.  Demand walks and the churn
schedule are deliberately *not* stored — they are pure functions of the
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.events import EventKind, EventLog
from repro.cloudsim.metrics import MetricsCollector
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.simulation import (
    SimulationResult,
    StepPipeline,
    first_fit_ram,
)
from repro.config import SimulationConfig
from repro.core.basis import VmSlotPool
from repro.errors import ConfigurationError
from repro.mdp.interfaces import Scheduler
from repro.mdp.state import observe_state  # noqa: F401 -- perfbench's traced run patches this name
from repro.service.churn import (
    CREATE,
    DELETE,
    RESIZE,
    ChurnEvent,
    ChurnModel,
    TraceChurnModel,
)

__all__ = ["ServiceSimulation"]

#: Demand-trace shape: an AR(1)-style random walk in utilization space.
_TRACE_BASE_RANGE = (0.15, 0.75)
_TRACE_SIGMA = 0.08
_TRACE_LO = 0.02
_TRACE_HI = 1.0
#: Walk deltas drawn per refill.  Drawing ``n`` normals at once yields
#: the same stream as ``n`` single draws, so this sets speed only.
_WALK_BLOCK = 64

#: Version of the :meth:`ServiceSimulation.snapshot` state layout.
_STATE_FORMAT = 1


class _DemandWalk:
    """One VM's utilization walk, advanced a step at a time.

    An AR(1)-style random walk in utilization space seeded with
    ``(workload_seed, uid)``, which makes it independent of creation
    order: step ``k`` of a VM's life is the level after ``k + 1``
    clamped deltas, whenever the walk is built.
    """

    __slots__ = ("_rng", "_deltas", "_next", "level", "position")

    def __init__(self, workload_seed: int, uid: int) -> None:
        self._rng = np.random.default_rng((workload_seed, uid))
        self.level = float(self._rng.uniform(*_TRACE_BASE_RANGE))
        self._deltas: List[float] = []
        self._next = 0
        #: Deltas applied so far.
        self.position = 0

    def advance_to(self, position: int) -> float:
        """Apply deltas until ``position`` have been; return the level."""
        level = self.level
        while self.position < position:
            if self._next == len(self._deltas):
                self._deltas = self._rng.normal(
                    0.0, _TRACE_SIGMA, size=_WALK_BLOCK
                ).tolist()
                self._next = 0
            delta = self._deltas[self._next]
            level = min(_TRACE_HI, max(_TRACE_LO, level + delta))
            self._next += 1
            self.position += 1
        self.level = level
        return level


@dataclass
class _LiveVm:
    """Bookkeeping for one live VM: identity, slot, capacities, demand."""

    uid: int
    slot: int
    created_step: int
    mips: float
    ram_mb: float
    bandwidth_mbps: float
    walk: _DemandWalk


@dataclass
class _Runtime:
    """Mutable per-run state; rebuilt fresh or from a checkpoint."""

    steps: int
    pipeline: StepPipeline
    pool: VmSlotPool
    live: Dict[int, _LiveVm] = field(default_factory=dict)
    pending: List[int] = field(default_factory=list)
    cursor: int = 0
    start_step: int = 0


class ServiceSimulation:
    """Binds a churn schedule to a datacenter of reusable VM slots.

    Args:
        datacenter: a struct-of-arrays :class:`Datacenter` whose VM
            population is ``capacity`` *placeholder* slots (inactive,
            unplaced); arrivals bind them and departures clear them.
        churn: a :class:`ChurnModel` or :class:`TraceChurnModel` whose
            horizon covers the run.
        config: simulation parameters (interval, costs, thresholds).
        decide_every: scheduler decision cadence, in steps.
        scan_every: utilization-scan (monitor) cadence, in steps.
        workload_seed: seed of the per-VM demand traces (default:
            ``config.seed``).
        monitor_history: samples kept per entity by the monitor.
        spec: registry rebuild info (``{"builder", "seed", "params"}``)
            — attached by the builder so a checkpoint can reconstruct
            the service; ``None`` for hand-built instances.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        churn: Union[ChurnModel, TraceChurnModel],
        config: Optional[SimulationConfig] = None,
        decide_every: int = 1,
        scan_every: int = 1,
        workload_seed: Optional[int] = None,
        monitor_history: int = 12,
        spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        StepPipeline.check_datacenter(datacenter)
        if decide_every < 1 or scan_every < 1:
            raise ConfigurationError(
                "decide_every and scan_every must be >= 1"
            )
        self.datacenter = datacenter
        self.churn = churn
        self.config = config or SimulationConfig()
        if churn.num_steps < self.config.num_steps:
            raise ConfigurationError(
                f"churn horizon covers {churn.num_steps} steps but the "
                f"run needs {self.config.num_steps}"
            )
        self.decide_every = decide_every
        self.scan_every = scan_every
        self.workload_seed = (
            self.config.seed if workload_seed is None else workload_seed
        )
        self.monitor_history = monitor_history
        self.spec = spec
        #: Marks service mode for ``MeghScheduler.from_simulation`` —
        #: the learner enables operator tracking so slots can retire.
        self.dynamic_slots = True
        self.capacity = datacenter.num_vms
        self._runtime: Optional[_Runtime] = None
        self._resume_state: Optional[Dict[str, Any]] = None
        self._resume_rings: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every slot to the pristine placeholder state."""
        datacenter = self.datacenter
        for vm in datacenter.vms:
            if datacenter.is_placed(vm.vm_id):
                datacenter.remove(vm.vm_id)
        for pm in datacenter.pms:
            pm.wake()
        for slot in range(self.capacity):
            self._clear_slot(slot)
        self._runtime = None

    def _clear_slot(self, slot: int) -> None:
        """Return ``slot`` to its inactive 1-MIPS/1-MB placeholder."""
        vm = self.datacenter.vm(slot)
        vm.set_active(False)
        vm.mips = vm.ram_mb = vm.bandwidth_mbps = 1.0
        self.datacenter.arrays.clear_vm_slot(slot)

    def _bind_slot(
        self,
        runtime: _Runtime,
        uid: int,
        slot: int,
        created_step: int,
        mips: float,
        ram_mb: float,
        bandwidth_mbps: float,
    ) -> None:
        """Give ``slot`` to VM ``uid`` and register its live record."""
        vm = self.datacenter.vm(slot)
        vm.mips, vm.ram_mb, vm.bandwidth_mbps = mips, ram_mb, bandwidth_mbps
        self.datacenter.arrays.bind_vm_slot(slot, mips, ram_mb, bandwidth_mbps)
        runtime.live[uid] = _LiveVm(
            uid,
            slot,
            created_step,
            mips,
            ram_mb,
            bandwidth_mbps,
            _DemandWalk(self.workload_seed, uid),
        )

    def _install_resume(
        self, state: Dict[str, Any], rings: Dict[str, np.ndarray]
    ) -> None:
        """Arm the next :meth:`run` to continue from checkpoint state,
        which must have been taken under this service's settings."""
        expected = {
            "format": _STATE_FORMAT,
            "decide_every": self.decide_every,
            "scan_every": self.scan_every,
            "workload_seed": self.workload_seed,
        }
        for key, value in expected.items():
            if state.get(key) != value:
                raise ConfigurationError(
                    f"checkpoint has {key}={state.get(key)!r} but this "
                    f"service has {key}={value!r}; resume it into a "
                    f"service built with the checkpointed settings"
                )
        self._resume_state = state
        self._resume_rings = dict(rings)

    # ------------------------------------------------------------------
    # Runtime construction
    # ------------------------------------------------------------------
    def _restore_runtime(
        self,
        runtime: _Runtime,
        state: Dict[str, Any],
        rings: Dict[str, np.ndarray],
        event_log: Optional[EventLog],
    ) -> None:
        """Load checkpoint state into a freshly built ``runtime``."""
        from repro.engine.serialize import _sla_from_dict, _step_from_dict

        if int(state["total_steps"]) != runtime.steps:
            raise ConfigurationError(
                f"checkpoint was taken on a {state['total_steps']}-step "
                f"run; cannot resume it for {runtime.steps} steps"
            )
        datacenter = self.datacenter
        pipeline = runtime.pipeline

        # Live VMs, in their original insertion order; demand walks
        # restart from (workload_seed, uid) and catch up on their first
        # step.
        slot_of: Dict[int, int] = {}
        placements: List[tuple[int, int]] = []
        for entry in state["live"]:
            uid, slot, created_step, host = (
                int(entry[index]) for index in (0, 1, 2, 6)
            )
            mips, ram_mb, bandwidth = (float(value) for value in entry[3:6])
            slot_of[uid] = slot
            self._bind_slot(
                runtime, uid, slot, created_step, mips, ram_mb, bandwidth
            )
            if host >= 0:
                placements.append((slot, host))
        runtime.pool = VmSlotPool.restore(self.capacity, slot_of)
        for slot, host in placements:
            datacenter.place(slot, host)
        runtime.pending = [int(uid) for uid in state["pending"]]

        # In-flight transfers are re-registered in insertion order: the
        # engine's iteration order feeds the SLA accountant's first-seen
        # record order.
        pipeline.engine.restore(
            {"in_flight": state["in_flight"], **state["engine"]}
        )

        pipeline.accountant = _sla_from_dict(state["sla"])
        pipeline.collector = MetricsCollector(
            [_step_from_dict(step_data) for step_data in state["metrics"]]
        )

        monitor_state = state["monitor"]
        pipeline.monitor = UtilizationMonitor.restore(
            monitor_state,
            {name: rings[f"service_{name}_ring"] for name in ("vm", "host")}
            if monitor_state["has_rings"]
            else {},
        )

        pipeline.cost_model.energy.restore(state["energy"])
        pipeline.cost_model.sla.restore({"usd": state["sla_cost_usd"]})

        for pm_id in state["pm_asleep"]:
            datacenter.pm(int(pm_id)).sleep()

        if event_log is not None and state.get("events"):
            event_log.restore(state["events"])

        runtime.cursor = int(state["churn_cursor"])
        pipeline.cost_since_decide = float(state["cost_since_decide"])
        runtime.start_step = int(state["next_step"])

    # ------------------------------------------------------------------
    # Checkpoint snapshot
    # ------------------------------------------------------------------
    def snapshot(
        self, next_step: int, event_log: Optional[EventLog] = None
    ) -> tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The run's full restart state as ``(json_state, arrays)``."""
        from repro.engine.serialize import _sla_to_dict, _step_to_dict

        runtime = self._runtime
        if runtime is None:
            raise ConfigurationError("no run in progress to snapshot")
        pipeline = runtime.pipeline
        arrays = self.datacenter.arrays
        monitor_counters, monitor_rings = pipeline.monitor.state()
        engine_state = pipeline.engine.state()
        state: Dict[str, Any] = {
            "format": _STATE_FORMAT,
            "spec": self.spec,
            "next_step": next_step,
            "total_steps": runtime.steps,
            "decide_every": self.decide_every,
            "scan_every": self.scan_every,
            "workload_seed": self.workload_seed,
            "churn_cursor": runtime.cursor,
            "live": [
                [
                    record.uid,
                    record.slot,
                    record.created_step,
                    record.mips,
                    record.ram_mb,
                    record.bandwidth_mbps,
                    int(arrays.host_of[record.slot]),
                ]
                for record in runtime.live.values()
            ],
            "pending": list(runtime.pending),
            "pm_asleep": [
                int(pm_id) for pm_id in np.flatnonzero(arrays.pm_asleep)
            ],
            "in_flight": engine_state["in_flight"],
            "engine": {
                "total_migrations": engine_state["total_migrations"],
            },
            "monitor": {
                **monitor_counters,
                "has_rings": bool(monitor_rings),
            },
            "sla": _sla_to_dict(pipeline.accountant),
            "metrics": [
                _step_to_dict(step) for step in pipeline.collector.steps
            ],
            "cost_since_decide": pipeline.cost_since_decide,
            "energy": pipeline.cost_model.energy.state(),
            "sla_cost_usd": pipeline.cost_model.sla.state()["usd"],
            "events": event_log.state() if event_log is not None else None,
        }
        ring_arrays = {
            f"service_{name}_ring": ring
            for name, ring in monitor_rings.items()
        }
        return state, ring_arrays

    # ------------------------------------------------------------------
    # Per-step stages
    # ------------------------------------------------------------------
    def _apply_churn(
        self,
        runtime: _Runtime,
        step: int,
        scheduler: Scheduler,
        event_log: Optional[EventLog],
    ) -> None:
        """Stage 1: drain lifecycle events due at or before ``step``."""
        events = self.churn.events
        while (
            runtime.cursor < len(events)
            and events[runtime.cursor].step <= step
        ):
            event = events[runtime.cursor]
            runtime.cursor += 1
            if event.kind == DELETE:
                self._apply_delete(runtime, step, event, scheduler, event_log)
            elif event.kind == RESIZE:
                self._apply_resize(runtime, step, event, event_log)
            elif event.kind == CREATE:
                self._apply_create(runtime, step, event, event_log)

    def _apply_create(
        self,
        runtime: _Runtime,
        step: int,
        event: ChurnEvent,
        event_log: Optional[EventLog],
    ) -> None:
        slot = runtime.pool.allocate(event.uid)
        if slot is None:
            if event_log is not None:
                event_log.emit(
                    step,
                    EventKind.CUSTOM,
                    reason="vm_rejected_pool_full",
                    uid=event.uid,
                )
            return
        self._bind_slot(
            runtime,
            event.uid,
            slot,
            step,
            event.mips,
            event.ram_mb,
            event.bandwidth_mbps,
        )
        runtime.pending.append(event.uid)
        if event_log is not None:
            event_log.emit(
                step,
                EventKind.VM_CREATED,
                uid=event.uid,
                vm_id=slot,
                mips=event.mips,
                ram_mb=event.ram_mb,
                bandwidth_mbps=event.bandwidth_mbps,
            )

    def _apply_resize(
        self,
        runtime: _Runtime,
        step: int,
        event: ChurnEvent,
        event_log: Optional[EventLog],
    ) -> None:
        record = runtime.live.get(event.uid)
        if record is None:
            return
        record.mips = event.mips
        vm = self.datacenter.vm(record.slot)
        vm.mips = event.mips
        arrays = self.datacenter.arrays
        arrays.vm_mips[record.slot] = event.mips
        arrays.mark_demand_dirty()
        arrays.mark_delivered_dirty()
        if event_log is not None:
            event_log.emit(
                step,
                EventKind.VM_RESIZED,
                uid=event.uid,
                vm_id=record.slot,
                mips=event.mips,
            )

    def _apply_delete(
        self,
        runtime: _Runtime,
        step: int,
        event: ChurnEvent,
        scheduler: Scheduler,
        event_log: Optional[EventLog],
    ) -> None:
        record = runtime.live.pop(event.uid, None)
        if record is None:
            return
        slot = record.slot
        datacenter = self.datacenter
        runtime.pipeline.engine.cancel(slot)
        if datacenter.is_placed(slot):
            datacenter.remove(slot)
        self._clear_slot(slot)
        # The departed occupant's billing window must not keep charging
        # against the (now empty, later reused) slot.
        runtime.pipeline.accountant.reset_vm_window(slot)
        retire = getattr(scheduler, "retire_vm", None)
        if retire is not None:
            retire(slot)
        runtime.pool.release(event.uid)
        if event.uid in runtime.pending:
            runtime.pending.remove(event.uid)
        if event_log is not None:
            event_log.emit(
                step, EventKind.VM_DELETED, uid=event.uid, vm_id=slot
            )

    def _place_pending(self, runtime: _Runtime) -> None:
        """Stage 2: first-fit queued arrivals, FIFO, host-id order."""
        runtime.pending = [
            uid
            for uid in runtime.pending
            if not first_fit_ram(self.datacenter, runtime.live[uid].slot)
        ]

    def _apply_demand(self, runtime: _Runtime, step: int) -> None:
        """Stage 3: every live VM's demand for this interval."""
        arrays = self.datacenter.arrays
        demand = arrays.vm_demand
        live = runtime.live
        for uid in runtime.pool.live_uids():
            record = live[uid]
            demand[record.slot] = record.walk.advance_to(
                step - record.created_step + 1
            )
        arrays.mark_demand_dirty()

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(
        self,
        scheduler: Scheduler,
        num_steps: Optional[int] = None,
        event_log: Optional[EventLog] = None,
        validate_every_step: Optional[bool] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        stop_after_step: Optional[int] = None,
    ) -> Optional[SimulationResult]:
        """Run (or resume) the service for ``num_steps`` intervals.

        ``checkpoint_every``/``checkpoint_path`` write a restartable
        checkpoint every N completed steps; ``stop_after_step=k``
        finishes step *k*, writes a final checkpoint and returns
        ``None`` (the interrupted-run half of the bit-identity
        contract).  Checkpointing requires a learner-bearing scheduler
        (one exposing ``lstd``, i.e. :class:`MeghScheduler`).

        A resumed run (armed by
        :func:`repro.core.checkpoint.load_service`) continues from the
        stored step; pass the same horizon (or none) and, to keep
        accumulating the event log, a fresh ``event_log`` — the stored
        lines are replayed into it first.
        """
        wants_checkpoints = (
            checkpoint_every is not None or stop_after_step is not None
        )
        if wants_checkpoints:
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every/stop_after_step require "
                    "checkpoint_path"
                )
            if not hasattr(scheduler, "lstd"):
                raise ConfigurationError(
                    "checkpointing requires a learner-bearing scheduler"
                )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")

        resume_state = self._resume_state
        resume_rings = self._resume_rings
        self._resume_state = None
        self._resume_rings = {}

        steps = self.config.num_steps if num_steps is None else num_steps
        start_step = 0
        if resume_state is not None:
            start_step = int(resume_state["next_step"])
            if num_steps is None:
                steps = int(resume_state["total_steps"])
        if steps > self.churn.num_steps:
            raise ConfigurationError(
                f"requested {steps} steps but the churn schedule covers "
                f"only {self.churn.num_steps}"
            )
        if stop_after_step is not None and not (
            start_step <= stop_after_step < steps
        ):
            raise ConfigurationError(
                f"stop_after_step must be in [{start_step}, {steps}), "
                f"got {stop_after_step}"
            )

        self.reset()
        pipeline = StepPipeline(
            self.datacenter,
            self.config,
            UtilizationMonitor(history_length=self.monitor_history),
            event_log=event_log,
            validate_every_step=validate_every_step,
        )
        runtime = _Runtime(steps, pipeline, VmSlotPool(self.capacity))
        if resume_state is not None:
            self._restore_runtime(
                runtime, resume_state, resume_rings, event_log
            )
        self._runtime = runtime

        for step in range(runtime.start_step, steps):
            self._apply_churn(runtime, step, scheduler, event_log)
            self._place_pending(runtime)
            self._apply_demand(runtime, step)
            pipeline.step(
                step,
                scheduler,
                scan=step % self.scan_every == 0,
                decide=step % self.decide_every == 0,
            )

            at_boundary = (
                checkpoint_every is not None
                and (step + 1) % checkpoint_every == 0
            )
            stopping = step == stop_after_step
            if (at_boundary and step + 1 < steps) or stopping:
                self._write_checkpoint(
                    checkpoint_path, scheduler, step + 1, event_log
                )
            if stopping:
                return None

        return pipeline.result(scheduler.name)

    def _write_checkpoint(
        self,
        path: Optional[str],
        scheduler: Scheduler,
        next_step: int,
        event_log: Optional[EventLog],
    ) -> None:
        from repro.core.checkpoint import save_service

        assert path is not None  # guarded at run() entry
        state, rings = self.snapshot(next_step, event_log)
        save_service(scheduler, path, state, rings)

    # ------------------------------------------------------------------
    # Introspection (post-run, for the CLI and tests)
    # ------------------------------------------------------------------
    @property
    def num_live_vms(self) -> int:
        if self._runtime is None:
            return 0
        return self._runtime.pool.num_live

    @property
    def churn_events_applied(self) -> int:
        if self._runtime is None:
            return 0
        return self._runtime.cursor
