"""Simulation driver: replays a workload against a scheduler.

Each observation interval (``tau`` seconds, 300 by default) the workload
sets every VM's demanded utilization, then one :class:`StepPipeline` step
runs — the same pipeline the service driver (:mod:`repro.service.loop`)
runs:

1. the monitor records histories (the VMM feed of Section 3.1);
2. the scheduler is invoked on an :class:`Observation`;
3. its migrations start — the migration engine rejects infeasible ones;
4. CPU is shared, migration overhead charged, in-flight transfers advance;
5. SLA counters and the Eq. (6) step cost are updated;
6. idle hosts go to sleep and the step's metrics are recorded.

The loop mirrors CloudSim's power-aware example driver, which the paper's
experiments are built on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.events import EventKind, EventLog
from repro.cloudsim.metrics import MetricsCollector, StepMetrics
from repro.cloudsim.migration import MigrationEngine, MigrationOutcome
from repro.cloudsim.monitor import UtilizationMonitor
from repro.cloudsim.sla import SlaAccountant
from repro.config import SimulationConfig
from repro.costs.model import OperationCostModel
from repro.errors import ConfigurationError, SchedulerError
from repro.mdp.interfaces import Observation, Scheduler
from repro.mdp.state import observe_state
from repro.workloads.base import Workload

#: The outcome of a step on which the scheduler is not consulted.
_NO_MIGRATIONS = MigrationOutcome(
    started=(), rejected=(), completed=(), downtime_seconds={}
)


@dataclass
class SimulationResult:
    """Everything measured during a run."""

    scheduler_name: str
    metrics: MetricsCollector
    sla: SlaAccountant
    config: SimulationConfig
    num_pms: int
    num_vms: int

    @property
    def total_cost_usd(self) -> float:
        return self.metrics.total_cost_usd

    @property
    def total_migrations(self) -> int:
        return self.metrics.total_migrations

    @property
    def mean_active_hosts(self) -> float:
        return self.metrics.mean_active_hosts

    @property
    def mean_scheduler_ms(self) -> float:
        return self.metrics.mean_scheduler_milliseconds

    def to_dict(self) -> dict:
        """JSON-compatible dict capturing the full run (exact round trip).

        Delegates to :mod:`repro.engine.serialize`; ``from_dict`` inverts
        it bit-for-bit, including every per-step metric and SLA window
        entry.  Derived aggregates are recomputed, never stored.
        """
        from repro.engine.serialize import result_to_dict

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result previously flattened with :meth:`to_dict`."""
        from repro.engine.serialize import result_from_dict

        return result_from_dict(data)

    def summary(self) -> str:
        """Table-2-style one-block summary of the run."""
        lines = [
            f"scheduler        : {self.scheduler_name}",
            f"fleet            : {self.num_pms} PMs / {self.num_vms} VMs, "
            f"{len(self.metrics.steps)} steps",
            f"total cost (USD) : {self.total_cost_usd:.2f}",
            f"  energy (USD)   : {self.metrics.total_energy_cost_usd:.2f}",
            f"  SLA (USD)      : {self.metrics.total_sla_cost_usd:.2f}",
            f"#VM migrations   : {self.total_migrations}",
            f"avg active hosts : {self.mean_active_hosts:.1f}",
            f"exec time (ms)   : {self.mean_scheduler_ms:.3f}",
            f"SLA violation    : {self.sla.overall_sla_violation():.5%}",
        ]
        return "\n".join(lines)


class Simulation:
    """Binds a workload to a data center and runs schedulers against it.

    Args:
        datacenter: the (already initially-placed) data center.
        workload: per-VM utilization trace; must cover every VM.
        config: simulation parameters.
        monitor_history: samples kept per entity for the VMM histories.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        monitor_history: int = 12,
        topology=None,
        dynamic_provisioning: bool = False,
    ) -> None:
        self.config = config or SimulationConfig()
        if workload.num_vms < datacenter.num_vms:
            raise ConfigurationError(
                f"workload covers {workload.num_vms} VMs but the data center "
                f"has {datacenter.num_vms}"
            )
        if workload.num_steps < self.config.num_steps:
            raise ConfigurationError(
                f"workload has {workload.num_steps} steps but the run needs "
                f"{self.config.num_steps}"
            )
        self.datacenter = datacenter
        self.workload = workload
        self.topology = topology
        #: With dynamic provisioning, a VM that goes inactive is
        #: deprovisioned (its RAM reservation freed) and re-placed
        #: first-fit when its next task arrives — task-based traces then
        #: exercise the provisioning path instead of holding idle
        #: reservations.
        self.dynamic_provisioning = dynamic_provisioning
        #: VMs awaiting capacity under dynamic provisioning, in arrival
        #: order; the companion set makes membership checks O(1).
        self.pending_vm_ids: list[int] = []
        self._pending_set: set[int] = set()
        self.monitor = UtilizationMonitor(history_length=monitor_history)
        self._initial_placement = datacenter.placement()

    def reset(self) -> None:
        """Restore the initial placement so another scheduler can run."""
        for vm in self.datacenter.vms:  # meghlint: ignore[MEGH009] -- cold path: runs once per scheduler, not per step
            if self.datacenter.is_placed(vm.vm_id):
                self.datacenter.remove(vm.vm_id)
            vm.set_active(True)
            vm.set_demand(0.0)
            vm.delivered_utilization = 0.0
        for pm in self.datacenter.pms:  # meghlint: ignore[MEGH009] -- cold path: runs once per scheduler, not per step
            pm.wake()
        for vm_id, pm_id in self._initial_placement.items():
            self.datacenter.place(vm_id, pm_id)
        self.pending_vm_ids = []
        self._pending_set = set()
        self.monitor = UtilizationMonitor(
            history_length=self.monitor.history_length
        )

    def run(
        self,
        scheduler: Scheduler,
        num_steps: Optional[int] = None,
        cost_model: Optional[OperationCostModel] = None,
        event_log=None,
        validate_every_step: Optional[bool] = None,
    ) -> SimulationResult:
        """Run the scheduler for ``num_steps`` intervals (default: config).

        ``cost_model`` swaps in an alternative
        :class:`~repro.costs.model.OperationCostModel` (e.g. one built on
        time-of-use electricity or tiered VM pricing from
        :mod:`repro.costs.dynamic`); it must be freshly constructed, as
        cost models accumulate state over a run.

        ``event_log`` (an :class:`~repro.cloudsim.events.EventLog`)
        receives structured migration/overload/sleep events for offline
        analysis.

        ``validate_every_step`` runs the
        :mod:`repro.cloudsim.validation` invariant checks after every
        interval — slow, but catches scheduler/engine bugs at the step
        that introduced them.  ``None`` follows the runtime-contract
        toggle: on in the test suite, off in benchmarks.
        """
        steps = num_steps if num_steps is not None else self.config.num_steps
        if steps > self.workload.num_steps:
            raise ConfigurationError(
                f"requested {steps} steps but the workload has only "
                f"{self.workload.num_steps}"
            )
        pipeline = StepPipeline(
            self.datacenter,
            self.config,
            self.monitor,
            topology=self.topology,
            cost_model=cost_model,
            event_log=event_log,
            validate_every_step=validate_every_step,
            clock=time.perf_counter,
        )
        for step in range(steps):
            self._apply_workload(step)
            pipeline.step(step, scheduler)
        return pipeline.result(scheduler.name)

    def _apply_workload(self, step: int) -> None:
        arrays = getattr(self.datacenter, "arrays", None)
        step_source = getattr(self.workload, "step_slice", None)
        if arrays is not None and step_source is not None:
            # Batched path: one vector write per quantity.  The workload
            # matrices were range-validated at construction, so the
            # per-value checks of set_demand/set_bandwidth_demand are
            # not repeated here.
            active, utilization, bandwidth = step_source(step)
            num_vms = arrays.num_vms
            active = active[:num_vms]
            arrays.vm_active[:] = active
            inactive = ~active
            np.copyto(
                arrays.vm_demand, utilization[:num_vms], where=active
            )
            arrays.vm_demand[inactive] = 0.0
            arrays.vm_delivered[inactive] = 0.0
            if bandwidth is not None:
                np.copyto(
                    arrays.vm_bw_demand, bandwidth[:num_vms], where=active
                )
            arrays.vm_bw_demand[inactive] = 0.0
            arrays.mark_activity_dirty()
        else:
            bandwidth_source = getattr(
                self.workload, "bandwidth_utilization", None
            )
            for vm in self.datacenter.vms:  # meghlint: ignore[MEGH009] -- compat path for workloads without step_slice
                active = self.workload.is_active(vm.vm_id, step)
                vm.set_active(active)
                if active:
                    vm.set_demand(self.workload.utilization(vm.vm_id, step))
                    if bandwidth_source is not None:
                        vm.set_bandwidth_demand(
                            bandwidth_source(vm.vm_id, step)
                        )
        if self.dynamic_provisioning:
            self._provision()

    def _provision(self) -> None:
        """Deprovision idle VMs; first-fit newly active (or waiting) ones.

        The pending queue preserves arrival order (FIFO), with a
        companion set for O(1) membership tests.
        """
        arrays = getattr(self.datacenter, "arrays", None)
        if arrays is not None:
            placed = arrays.host_of >= 0
            active = arrays.vm_active
            for vm_id in np.flatnonzero(~active & placed):
                self.datacenter.remove(int(vm_id))
            for vm_id in np.flatnonzero(active & ~placed):
                key = int(vm_id)
                if key not in self._pending_set:
                    self.pending_vm_ids.append(key)
                    self._pending_set.add(key)
        else:
            for vm in self.datacenter.vms:  # meghlint: ignore[MEGH009] -- compat path for object-model datacenters
                placed = self.datacenter.is_placed(vm.vm_id)
                if not vm.is_active and placed:
                    self.datacenter.remove(vm.vm_id)
                elif vm.is_active and not placed:
                    if vm.vm_id not in self._pending_set:
                        self.pending_vm_ids.append(vm.vm_id)
                        self._pending_set.add(vm.vm_id)
        # A VM whose task ended while it waited leaves the queue.
        self.pending_vm_ids = [
            vm_id
            for vm_id in self.pending_vm_ids
            if self.datacenter.vm(vm_id).is_active
            and not first_fit_ram(self.datacenter, vm_id)
        ]
        self._pending_set = set(self.pending_vm_ids)


def first_fit_ram(datacenter: Any, vm_id: int) -> bool:
    """Place ``vm_id`` on the lowest-id host with room for its RAM;
    return whether it was placed."""
    arrays = getattr(datacenter, "arrays", None)
    if arrays is not None:
        # Cached derived vector: recomputed only when a placement
        # since the last call dirtied the RAM aggregate.
        ram_free = arrays.pm_ram_free_mb()
        candidates = np.flatnonzero(datacenter.vm(vm_id).ram_mb <= ram_free)
        if candidates.size == 0:
            return False
        datacenter.place(vm_id, int(candidates[0]))
        return True
    for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- compat path for object-model datacenters
        if datacenter.fits(vm_id, pm.pm_id):
            datacenter.place(vm_id, pm.pm_id)
            return True
    return False


def _mean_active_host_utilization(datacenter: Any) -> float:
    arrays = getattr(datacenter, "arrays", None)
    if arrays is not None:
        active_ids = np.flatnonzero(arrays.active_pm_mask())
        if active_ids.size == 0:
            return 0.0
        capped = np.minimum(1.0, arrays.pm_demand_utilization()[active_ids])
        # Left-to-right total (cumsum) in host-id order, matching the
        # object path's accumulation bit for bit.
        return float(np.cumsum(capped)[-1]) / active_ids.size
    active = datacenter.active_pm_ids()
    if not active:
        return 0.0
    total = sum(
        min(1.0, datacenter.demanded_utilization(pm_id)) for pm_id in active
    )
    return total / len(active)


def _emit_events(
    event_log: EventLog,
    step: int,
    outcome: MigrationOutcome,
    advance: MigrationOutcome,
    overloaded_ids: Any,
    slept: Any,
) -> None:
    for kind, migrations in (
        (EventKind.MIGRATION_STARTED, outcome.started),
        (EventKind.MIGRATION_REJECTED, outcome.rejected),
    ):
        for migration in migrations:
            event_log.emit(
                step, kind, vm_id=migration.vm_id, pm_id=migration.dest_pm_id
            )
    for vm_id in advance.completed:
        event_log.emit(step, EventKind.MIGRATION_COMPLETED, vm_id=vm_id)
    for pm_id in overloaded_ids:
        event_log.emit(step, EventKind.HOST_OVERLOADED, pm_id=pm_id)
    for pm_id in slept:
        event_log.emit(step, EventKind.HOST_SLEPT, pm_id=pm_id)


def _no_clock() -> float:
    return 0.0


class StepPipeline:
    """The per-interval mechanics shared by the batch and service drivers.

    A driver writes the interval's demand, then calls :meth:`step`; the
    pipeline runs the rest, from the utilization scan to the step's
    metrics.  It owns the run's migration engine, SLA accountant, cost
    model, metrics collector and monitor, and the cost accrued since the
    last decision (the next observation's ``last_step_cost_usd``; with a
    decision every step, exactly the previous step's cost).

    ``validate_every_step=None`` follows the runtime-contract toggle
    (:func:`repro.core.contracts.contracts_enabled`).  ``clock`` times
    each ``decide`` into ``scheduler_seconds``, the only wall-clock field
    of a result; the default records 0.0, so results stay byte-comparable.
    """

    def __init__(
        self,
        datacenter: Any,
        config: SimulationConfig,
        monitor: UtilizationMonitor,
        topology: Any = None,
        cost_model: Optional[OperationCostModel] = None,
        event_log: Optional[EventLog] = None,
        validate_every_step: Optional[bool] = None,
        clock: Callable[[], float] = _no_clock,
    ) -> None:
        if validate_every_step is None:
            from repro.core.contracts import contracts_enabled

            validate_every_step = contracts_enabled()
        dc_config = config.datacenter
        # Direct share_cpu(migrating_vm_ids) calls on the datacenter use
        # its configured overhead, so keep it in sync with the run config
        # (the engine passes its own overhead explicitly).
        datacenter.migration_overhead_fraction = (
            dc_config.migration_overhead_fraction
        )
        self.datacenter = datacenter
        self.config = config
        self.bandwidth_threshold = (
            dc_config.bandwidth_overload_threshold
            if dc_config.bandwidth_aware
            else None
        )
        self.engine = MigrationEngine(
            datacenter,
            overhead_fraction=dc_config.migration_overhead_fraction,
            alpha=dc_config.migration_cpu_threshold,
            topology=topology,
        )
        self.accountant = SlaAccountant(
            beta=dc_config.overload_threshold,
            window_seconds=config.costs.sla_billing_window_seconds,
            interval_seconds=config.interval_seconds,
            bandwidth_threshold=self.bandwidth_threshold,
        )
        self.cost_model = cost_model or OperationCostModel(config.costs)
        self.collector = MetricsCollector()
        self.monitor = monitor
        self.event_log = event_log
        self.validate_every_step = validate_every_step
        self.clock = clock
        self.cost_since_decide = 0.0

    def step(
        self,
        step: int,
        scheduler: Scheduler,
        scan: bool = True,
        decide: bool = True,
    ) -> None:
        """Run interval ``step``.

        ``scan`` and ``decide`` gate the monitor scan and the scheduler
        call; a step without a decision starts no migrations.
        """
        datacenter = self.datacenter
        dc_config = self.config.datacenter
        interval = self.config.interval_seconds
        if scan:
            self.monitor.observe(datacenter)
        scheduler_seconds = 0.0
        if decide:
            observation = Observation(
                step=step,
                state=observe_state(datacenter, step),
                datacenter=datacenter,
                monitor=self.monitor,
                last_step_cost_usd=self.cost_since_decide,
                interval_seconds=interval,
            )
            started = self.clock()
            migrations = scheduler.decide(observation)
            scheduler_seconds = self.clock() - started
            if migrations is None:
                raise SchedulerError(
                    f"{scheduler.name} returned None instead of a list"
                )
            self.cost_since_decide = 0.0
            outcome = self.engine.start(migrations)
        else:
            outcome = _NO_MIGRATIONS
        datacenter.share_cpu()
        advance = self.engine.advance(interval)
        self.accountant.observe_step(
            datacenter, interval, advance.downtime_seconds
        )
        step_cost = self.cost_model.step_cost(
            datacenter, self.accountant, interval
        )
        active_hosts = datacenter.num_active_hosts()
        slept = (
            datacenter.sleep_idle_hosts() if dc_config.sleep_idle_hosts else []
        )
        overloaded_ids = datacenter.overloaded_pm_ids(
            dc_config.overload_threshold, self.bandwidth_threshold
        )
        if self.event_log is not None:
            _emit_events(
                self.event_log, step, outcome, advance, overloaded_ids, slept
            )
        if self.validate_every_step:
            from repro.cloudsim.validation import check_invariants

            check_invariants(datacenter)
        self.collector.record(
            StepMetrics(
                step=step,
                energy_cost_usd=step_cost.energy_usd,
                sla_cost_usd=step_cost.sla_usd,
                num_migrations_started=len(outcome.started),
                num_migrations_rejected=len(outcome.rejected),
                num_active_hosts=active_hosts,
                scheduler_seconds=scheduler_seconds,
                mean_host_utilization=_mean_active_host_utilization(
                    datacenter
                ),
                num_overloaded_hosts=len(overloaded_ids),
            )
        )
        self.cost_since_decide += step_cost.total_usd

    def result(self, scheduler_name: str) -> SimulationResult:
        """Everything the run has measured so far."""
        return SimulationResult(
            scheduler_name=scheduler_name,
            metrics=self.collector,
            sla=self.accountant,
            config=self.config,
            num_pms=self.datacenter.num_pms,
            num_vms=self.datacenter.num_vms,
        )
