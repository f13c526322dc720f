"""Live-migration engine.

Executes migration decisions against the :class:`Datacenter`, tracks which
VMs are in flight (a migration of ``TM = M/B`` seconds can span several
observation intervals), charges the CPU overhead of the copy process, and
reports per-VM migration downtime to the SLA accountant using the paper's
``alpha`` rule: time during migration when delivered CPU is below
``alpha * demanded`` counts as downtime (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Set

from repro.cloudsim.datacenter import Datacenter
from repro.errors import MigrationError


@dataclass(frozen=True)
class Migration:
    """A single migration decision: move VM ``vm_id`` to PM ``dest_pm_id``."""

    vm_id: int
    dest_pm_id: int


@dataclass
class _InFlight:
    vm_id: int
    source_pm_id: int
    dest_pm_id: int
    remaining_seconds: float
    total_seconds: float


@dataclass(frozen=True)
class MigrationOutcome:
    """What happened when a batch of migrations was applied this step.

    Attributes:
        started: migrations accepted and started this step.
        rejected: migrations refused (destination full / VM already moving).
        completed: VM ids whose migration finished during this step.
        downtime_seconds: per-VM downtime charged this step by the alpha
            rule.
    """

    started: tuple[Migration, ...]
    rejected: tuple[Migration, ...]
    completed: tuple[int, ...]
    downtime_seconds: Dict[int, float]


class MigrationEngine:
    """Applies migration decisions and models their cost over time.

    The placement map is updated at migration *start* (pre-copy live
    migration leaves the VM running; the switch-over is what produces the
    brief downtime), while CPU overhead and downtime accrue for the whole
    transfer window.

    Args:
        datacenter: the placement substrate to mutate.
        overhead_fraction: CPU share lost by a VM while its pages are
            being copied (CloudSim default: 10 %).
        alpha: downtime threshold — delivered CPU below ``alpha * demand``
            during migration counts as downtime.
    """

    def __init__(
        self,
        datacenter: Datacenter,
        overhead_fraction: float = 0.10,
        alpha: float = 0.30,
    ) -> None:
        if not 0.0 <= overhead_fraction < 1.0:
            raise MigrationError("overhead fraction must be in [0, 1)")
        if not 0.0 <= alpha <= 1.0:
            raise MigrationError("alpha must be in [0, 1]")
        self._dc = datacenter
        self._overhead = overhead_fraction
        self._alpha = alpha
        self._in_flight: Dict[int, _InFlight] = {}
        self.total_migrations = 0

    @property
    def in_flight_vm_ids(self) -> Set[int]:
        """Ids of the VMs currently being migrated."""
        return set(self._in_flight)

    def is_migrating(self, vm_id: int) -> bool:
        return vm_id in self._in_flight

    def cancel(self, vm_id: int) -> bool:
        """Abort an in-flight migration (the VM is being deleted).

        The placement map was already updated at start, so no placement
        rollback happens here — the caller removes the VM from whatever
        host it occupies.  No further overhead or downtime accrues, and
        no completion event will be reported.  Returns whether a
        transfer was actually in flight.
        """
        return self._in_flight.pop(vm_id, None) is not None

    def state(self) -> Dict[str, Any]:
        """Restart state: in-flight transfers (insertion order) and
        lifetime counters.  :meth:`restore` inverts it."""
        return {
            "in_flight": [
                [
                    flight.vm_id,
                    flight.source_pm_id,
                    flight.dest_pm_id,
                    flight.remaining_seconds,
                    flight.total_seconds,
                ]
                for flight in self._in_flight.values()
            ],
            "total_migrations": self.total_migrations,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load :meth:`state` into this engine.

        Flights are re-registered in their stored insertion order:
        :meth:`advance` iterates the in-flight dict, and the resulting
        downtime-report order feeds the SLA accountant's first-seen
        record order, which serialized results depend on.  Trailing
        flight fields and keys beyond those :meth:`state` writes are
        ignored, so states saved with the retired pre-copy residue and
        ``total_gb_hops`` still load.
        """
        for flight in state["in_flight"]:
            vm_id = int(flight[0])
            if vm_id in self._in_flight:
                raise MigrationError(f"VM {vm_id} is already in flight")
            self._in_flight[vm_id] = _InFlight(
                vm_id=vm_id,
                source_pm_id=int(flight[1]),
                dest_pm_id=int(flight[2]),
                remaining_seconds=float(flight[3]),
                total_seconds=float(flight[4]),
            )
        self.total_migrations = int(state["total_migrations"])

    def start(self, migrations: Iterable[Migration]) -> MigrationOutcome:
        """Begin a batch of migrations, skipping infeasible ones.

        A migration is rejected (not raised) when the VM is already in
        flight, the destination has insufficient RAM, or the destination
        equals the current host.  Rejections are reported so schedulers
        can learn from them.  A destination that is not a host of the
        datacenter raises :class:`~repro.errors.UnknownEntityError`.
        """
        started: List[Migration] = []
        rejected: List[Migration] = []
        for mig in migrations:
            if mig.vm_id in self._in_flight:
                rejected.append(mig)
                continue
            source = self._dc.host_of(mig.vm_id)
            if (
                source is None
                or source == mig.dest_pm_id
                or not self._dc.fits(mig.vm_id, mig.dest_pm_id)
            ):
                rejected.append(mig)
                continue
            self._dc.move(mig.vm_id, mig.dest_pm_id)
            # TM = M / B (Section 3.3) with B the host network bandwidth:
            # the paper's "migration time of a VM of 0.5 GB RAM is at
            # least 4000 ms" corresponds to the 1 Gbps host link, not the
            # VM's own traffic allocation.
            bandwidth = min(
                self._dc.pm(source).bandwidth_mbps,
                self._dc.pm(mig.dest_pm_id).bandwidth_mbps,
            )
            duration = self._dc.vm(mig.vm_id).ram_mb * 8.0 / bandwidth
            self._in_flight[mig.vm_id] = _InFlight(
                vm_id=mig.vm_id,
                source_pm_id=source,
                dest_pm_id=mig.dest_pm_id,
                remaining_seconds=duration,
                total_seconds=duration,
            )
            self.total_migrations += 1
            started.append(mig)
        return MigrationOutcome(
            started=tuple(started),
            rejected=tuple(rejected),
            completed=(),
            downtime_seconds={},
        )

    def advance(self, interval_seconds: float) -> MigrationOutcome:
        """Advance all in-flight migrations by one observation interval.

        Must be called *after* :meth:`Datacenter.share_cpu` so that
        delivered utilizations reflect the current placement.  Charges
        the migration CPU overhead, accrues alpha-rule downtime, and
        retires migrations whose transfer completed within the interval.
        """
        if interval_seconds <= 0:
            raise MigrationError("interval must be > 0")
        completed: List[int] = []
        downtime: Dict[int, float] = {}
        self._dc.apply_migration_overhead(self._in_flight, self._overhead)
        for vm_id, flight in list(self._in_flight.items()):
            vm = self._dc.vm(vm_id)
            active_window = min(flight.remaining_seconds, interval_seconds)
            demanded = vm.demanded_utilization
            delivered = vm.delivered_utilization
            if demanded > 0 and delivered < self._alpha * demanded:
                # Severe degradation: the whole transfer window counts as
                # downtime (the alpha rule of Section 3.3).
                downtime[vm_id] = active_window
            else:
                # The copy process itself steals ``overhead`` of the VM's
                # CPU for the transfer window; CloudSim charges this
                # degradation-due-to-migration against the SLA, which is
                # why the paper stresses minimizing migration counts.
                downtime[vm_id] = self._overhead * active_window
            flight.remaining_seconds -= interval_seconds
            if flight.remaining_seconds <= 0:
                completed.append(vm_id)
                del self._in_flight[vm_id]
        return MigrationOutcome(
            started=(),
            rejected=(),
            completed=tuple(completed),
            downtime_seconds=downtime,
        )
