"""SLA accounting (Section 3.3).

Tracks, per host, the active time ``T_a`` and overload time ``T_o`` (Eq. 4)
and, per VM, the requested-service time ``T_r`` and the downtime from both
live migration (Eq. 5) and overloaded hosts — the paper counts the whole
overloading time of a host against every VM operating on it.

Violation tiers are evaluated on the downtime percentage over a trailing
*billing window* (default one day).  Real SLAs (Amazon/Google/Azure) are
settled per billing period; a cumulative-from-genesis percentage would let
one bad minute at boot dominate a month of good service.  Cumulative
counters are still kept for reporting.

Vectorized accounting
---------------------
The accountant keeps its counters in dense NumPy vectors indexed by
entity id — cumulative seconds in ``float64[cap]`` vectors, billing
windows in ``(cap, W)`` matrices used as per-row ring buffers.  Each
row keeps the slot its next entry goes to; an append writes that slot,
over the oldest entry once the row is full (a bounded deque's
append/evict, without shifting the row).  A row that is not full holds
its entries in slots ``0..len-1`` and +0.0 in the rest; a full row's
oldest entry sits in its next slot.
:class:`HostSlaRecord` and :class:`VmSlaRecord` are views over one row
of those arrays, handed out by :meth:`SlaAccountant.host_record` /
:meth:`SlaAccountant.vm_record`.

Each row also keeps an integer count of the non-zero downtime entries
in its window.  A VM whose count is zero has a windowed downtime
fraction of exactly 0.0, so the per-step SLA cost reads only the rows
with a positive count (:meth:`SlaAccountant.fractions_with_downtime`).

``observe_step`` reads the datacenter's
:class:`~repro.cloudsim.soa.DatacenterArrays` store: one masked vector
update per counter, exactly one ``+= interval`` per entity per step,
and windowed sums are strict left-to-right accumulations
(``np.cumsum``) over each ring read oldest first — the accumulation
order of a per-VM loop, bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.cloudsim.metrics import ordered_sum
from repro.errors import ConfigurationError

#: Default billing window: two hours of 5-minute intervals.  Short enough
#: that one overload blip is billed proportionately (not for a whole day),
#: long enough that sustained churn or chronic overload keeps paying.
DEFAULT_WINDOW_SECONDS = 7200.0

#: Initial per-entity capacity of a standalone accountant's arrays; grown
#: geometrically as larger ids are seen.
_MIN_CAPACITY = 16


class HostSlaRecord:
    """Per-host SLA counters: a view over one row of an accountant."""

    __slots__ = ("_owner", "_row")

    def __init__(self, owner: "SlaAccountant", row: int) -> None:
        self._owner = owner
        self._row = row

    def __repr__(self) -> str:
        return (
            f"HostSlaRecord(active_seconds={self.active_seconds}, "
            f"overload_seconds={self.overload_seconds})"
        )

    @property
    def active_seconds(self) -> float:
        return float(self._owner._host_active_s[self._row])

    @active_seconds.setter
    def active_seconds(self, value: float) -> None:
        self._owner._host_active_s[self._row] = value

    @property
    def overload_seconds(self) -> float:
        return float(self._owner._host_overload_s[self._row])

    @overload_seconds.setter
    def overload_seconds(self, value: float) -> None:
        self._owner._host_overload_s[self._row] = value

    @property
    def overload_fraction(self) -> float:
        """``O_i(t) = T_o / T_a`` (Eq. 4); 0 when never active."""
        if self.active_seconds <= 0.0:
            return 0.0
        return self.overload_seconds / self.active_seconds


class VmSlaRecord:
    """Per-VM SLA counters: cumulative plus a trailing billing window.

    A view over one row of an accountant's vectors and of its
    ``(cap, W)`` window matrices, whose rows are ring buffers of the
    ``(downtime, requested)`` entries.
    """

    __slots__ = ("_owner", "_row")

    def __init__(self, owner: "SlaAccountant", row: int) -> None:
        self._owner = owner
        self._row = row

    def __repr__(self) -> str:
        return (
            f"VmSlaRecord(window_steps={self.window_steps}, "
            f"requested_seconds={self.requested_seconds}, "
            f"migration_downtime_seconds={self.migration_downtime_seconds}, "
            f"overload_downtime_seconds={self.overload_downtime_seconds})"
        )

    # ------------------------------------------------------------------
    # Counter fields
    # ------------------------------------------------------------------
    @property
    def window_steps(self) -> int:
        return self._owner.window_steps

    @property
    def requested_seconds(self) -> float:
        return float(self._owner._vm_requested_s[self._row])

    @requested_seconds.setter
    def requested_seconds(self, value: float) -> None:
        self._owner._vm_requested_s[self._row] = value

    @property
    def migration_downtime_seconds(self) -> float:
        return float(self._owner._vm_mig_down_s[self._row])

    @migration_downtime_seconds.setter
    def migration_downtime_seconds(self, value: float) -> None:
        self._owner._vm_mig_down_s[self._row] = value

    @property
    def overload_downtime_seconds(self) -> float:
        return float(self._owner._vm_over_down_s[self._row])

    @overload_downtime_seconds.setter
    def overload_downtime_seconds(self, value: float) -> None:
        self._owner._vm_over_down_s[self._row] = value

    # ------------------------------------------------------------------
    # Billing window
    # ------------------------------------------------------------------
    def window_entries(self) -> List[Tuple[float, float]]:
        """Chronological ``(downtime, requested)`` entries, oldest first."""
        owner, row = self._owner, self._row
        width = owner._win_down.shape[1]
        n = int(owner._win_len[row])
        oldest = int(owner._win_next[row]) if n == width else 0
        slots = [(oldest + k) % width for k in range(n)]
        return [
            (float(owner._win_down[row, k]), float(owner._win_req[row, k]))
            for k in slots
        ]

    def record_step(self, downtime: float, requested: float) -> None:
        """Append one interval's (downtime, requested) to the window."""
        self._owner._record_window_single(self._row, downtime, requested)

    @property
    def total_downtime_seconds(self) -> float:
        return self.migration_downtime_seconds + self.overload_downtime_seconds

    @property
    def cumulative_downtime_fraction(self) -> float:
        """Downtime over the VM's whole lifetime."""
        if self.requested_seconds <= 0.0:
            return 0.0
        return self.total_downtime_seconds / self.requested_seconds

    @property
    def downtime_fraction(self) -> float:
        """Downtime fraction over the trailing billing window.

        This is the quantity the violation tiers of Section 3.3 are keyed
        on; it recovers once service is restored.
        """
        return float(self._owner._window_fraction_rows(
            np.array([self._row], dtype=np.int64)
        )[0])


class SlaAccountant:
    """Accumulates overload and downtime statistics step by step.

    Args:
        beta: host overload threshold (fraction of capacity).
        window_seconds: billing-window length for the violation tiers.
        interval_seconds: observation interval (defines window length in
            steps; defaults to 300 s).

    Attributes:
        hosts: per-host records, keyed by PM id, in first-seen order.
        vms: per-VM records, keyed by VM id, in first-seen order.
    """

    def __init__(
        self,
        beta: float = 0.70,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        interval_seconds: float = 300.0,
    ) -> None:
        if not 0 < beta <= 1:
            raise ConfigurationError("beta must be in (0, 1]")
        if window_seconds <= 0 or interval_seconds <= 0:
            raise ConfigurationError("window and interval must be > 0")
        self.beta = beta
        self.window_seconds = window_seconds
        self.interval_seconds = interval_seconds
        self.hosts: Dict[int, HostSlaRecord] = {}
        self.vms: Dict[int, VmSlaRecord] = {}
        # Array-backed counters (rows indexed by entity id, grown on
        # demand so a standalone accountant works without a datacenter).
        width = self.window_steps
        self._host_active_s = np.zeros(0, dtype=np.float64)
        self._host_overload_s = np.zeros(0, dtype=np.float64)
        self._vm_requested_s = np.zeros(0, dtype=np.float64)
        self._vm_mig_down_s = np.zeros(0, dtype=np.float64)
        self._vm_over_down_s = np.zeros(0, dtype=np.float64)
        self._win_down = np.zeros((0, width), dtype=np.float64)
        self._win_req = np.zeros((0, width), dtype=np.float64)
        self._win_len = np.zeros(0, dtype=np.int64)
        # The slot each row's next entry goes to.
        self._win_next = np.zeros(0, dtype=np.int64)
        # Non-zero downtime entries in each row's window.
        self._win_downtime_count = np.zeros(0, dtype=np.int64)
        # Tracked VM ids in first-seen order: the ``vms`` dict's keys.
        self._vm_order = np.zeros(0, dtype=np.int64)
        # Mirrors of dict membership, so the batched path can find the
        # not-yet-tracked entities without a per-id dict probe.
        self._host_seen = np.zeros(0, dtype=bool)
        self._vm_seen = np.zeros(0, dtype=bool)
        # Scratch buffers for the batched observe path.
        self._buf_down = np.zeros(0, dtype=np.float64)
        self._buf_in_step = np.zeros(0, dtype=bool)

    @property
    def window_steps(self) -> int:
        return max(1, int(round(self.window_seconds / self.interval_seconds)))

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    @staticmethod
    def _grow_1d(array: np.ndarray, capacity: int) -> np.ndarray:
        grown = np.zeros(capacity, dtype=array.dtype)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_host_capacity(self, size: int) -> None:
        if size <= self._host_active_s.shape[0]:
            return
        capacity = max(size, _MIN_CAPACITY, 2 * self._host_active_s.shape[0])
        self._host_active_s = self._grow_1d(self._host_active_s, capacity)
        self._host_overload_s = self._grow_1d(self._host_overload_s, capacity)
        self._host_seen = self._grow_1d(self._host_seen, capacity)

    def _ensure_vm_capacity(self, size: int) -> None:
        if size <= self._vm_requested_s.shape[0]:
            return
        capacity = max(size, _MIN_CAPACITY, 2 * self._vm_requested_s.shape[0])
        self._vm_requested_s = self._grow_1d(self._vm_requested_s, capacity)
        self._vm_mig_down_s = self._grow_1d(self._vm_mig_down_s, capacity)
        self._vm_over_down_s = self._grow_1d(self._vm_over_down_s, capacity)
        self._win_len = self._grow_1d(self._win_len, capacity)
        self._win_next = self._grow_1d(self._win_next, capacity)
        self._win_downtime_count = self._grow_1d(
            self._win_downtime_count, capacity
        )
        self._vm_order = self._grow_1d(self._vm_order, capacity)
        self._vm_seen = self._grow_1d(self._vm_seen, capacity)
        width = self._win_down.shape[1]
        for name in ("_win_down", "_win_req"):
            old = getattr(self, name)
            grown = np.zeros((capacity, width), dtype=np.float64)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)
        self._buf_down = np.zeros(capacity, dtype=np.float64)
        self._buf_in_step = np.zeros(capacity, dtype=bool)

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def host_record(self, pm_id: int) -> HostSlaRecord:
        record = self.hosts.get(pm_id)
        if record is None:
            self._ensure_host_capacity(pm_id + 1)
            record = HostSlaRecord(self, pm_id)
            self.hosts[pm_id] = record
            self._host_seen[pm_id] = True
        return record

    def vm_record(self, vm_id: int) -> VmSlaRecord:
        record = self.vms.get(vm_id)
        if record is None:
            self._ensure_vm_capacity(vm_id + 1)
            record = self._track_vm(vm_id)
        return record

    def _track_vm(self, vm_id: int) -> VmSlaRecord:
        """Create the record of a not-yet-tracked id (capacity ensured)."""
        record = VmSlaRecord(self, vm_id)
        self._vm_order[len(self.vms)] = vm_id
        self.vms[vm_id] = record
        self._vm_seen[vm_id] = True
        return record

    def restore_host_record(
        self, pm_id: int, active_seconds: float, overload_seconds: float
    ) -> HostSlaRecord:
        """Recreate a host record from serialized counters."""
        record = self.host_record(pm_id)
        record.active_seconds = active_seconds
        record.overload_seconds = overload_seconds
        return record

    def restore_vm_record(
        self,
        vm_id: int,
        requested_seconds: float,
        migration_downtime_seconds: float,
        overload_downtime_seconds: float,
        window: Iterable[Tuple[float, float]],
    ) -> VmSlaRecord:
        """Recreate a VM record (counters plus billing window)."""
        record = self.vm_record(vm_id)
        record.requested_seconds = requested_seconds
        record.migration_downtime_seconds = migration_downtime_seconds
        record.overload_downtime_seconds = overload_downtime_seconds
        self._clear_window(vm_id)
        for downtime, requested in window:
            self._record_window_single(vm_id, downtime, requested)
        return record

    def reset_vm_window(self, vm_id: int) -> None:
        """Clear a VM id's billing window (service mode: occupant left).

        When a churning VM departs, its slot id may later be reused by a
        new arrival; without this, the departed occupant's frozen window
        would keep billing SLA paybacks against an empty slot.  The
        cumulative counters are kept — they aggregate over everything
        the slot ever served.  A never-seen id is a no-op.
        """
        if vm_id < self._win_len.shape[0]:
            self._clear_window(vm_id)

    # ------------------------------------------------------------------
    # Window maintenance
    # ------------------------------------------------------------------
    def _clear_window(self, row: int) -> None:
        """Empty one VM's window: zeroed slots, no entries, no downtime."""
        self._win_down[row] = 0.0
        self._win_req[row] = 0.0
        self._win_len[row] = 0
        self._win_next[row] = 0
        self._win_downtime_count[row] = 0

    def _record_window_single(
        self, row: int, downtime: float, requested: float
    ) -> None:
        """Append one entry to a single VM's window."""
        width = self._win_down.shape[1]
        slot = int(self._win_next[row])
        # Truth of a float is "non-zero": -0.0 counts as no downtime.
        if self._win_down[row, slot]:
            self._win_downtime_count[row] -= 1
        self._win_down[row, slot] = downtime
        self._win_req[row, slot] = requested
        if self._win_down[row, slot]:
            self._win_downtime_count[row] += 1
        self._win_next[row] = (slot + 1) % width
        self._win_len[row] = min(int(self._win_len[row]) + 1, width)

    def _record_window_batch(
        self, rows: np.ndarray, downtime: np.ndarray, requested: float
    ) -> None:
        """Append one entry to many VMs' windows in one vector pass.

        ``rows`` must be distinct.  Each row's next slot holds +0.0
        until the row is full and its oldest entry after, so reading it
        before the write finds what the append evicts.
        """
        width = self._win_down.shape[1]
        slot = self._win_next[rows]
        flat = rows * width + slot
        flat_down = self._win_down.reshape(-1)
        self._win_downtime_count[rows] += downtime.astype(bool).view(
            np.int8
        ) - flat_down[flat].astype(bool).view(np.int8)
        flat_down[flat] = downtime
        self._win_req.reshape(-1)[flat] = requested
        slot += 1
        slot[slot == width] = 0
        self._win_next[rows] = slot
        filling = rows[self._win_len[rows] < width]
        if filling.size:
            self._win_len[filling] += 1

    def _window_fraction_rows(self, rows: np.ndarray) -> np.ndarray:
        """Windowed downtime fractions for the given rows.

        Each row's ``W`` slots are read oldest first and summed left to
        right (``np.cumsum``), like a loop over the window's entries,
        bit for bit; a row that is not full ends in unfilled +0.0
        slots, which never perturb a left-to-right sum of non-negative
        terms.
        """
        width = self._win_down.shape[1]
        oldest = np.where(self._win_len[rows] == width, self._win_next[rows], 0)
        slots = (rows * width)[:, None] + (
            (oldest[:, None] + np.arange(width, dtype=np.int64)) % width
        )
        requested = np.cumsum(self._win_req.reshape(-1)[slots], axis=1)[:, -1]
        downtime = np.cumsum(self._win_down.reshape(-1)[slots], axis=1)[:, -1]
        fractions = np.zeros(rows.shape[0], dtype=np.float64)
        served = requested > 0.0
        fractions[served] = downtime[served] / requested[served]
        return fractions

    # ------------------------------------------------------------------
    # Per-step observation
    # ------------------------------------------------------------------
    def observe_step(
        self,
        datacenter,
        interval_seconds: float,
        migration_downtime: Mapping[int, float] = (),
    ) -> None:
        """Record one observation interval.

        * every host serving VMs accrues active time, and overload time
          when its demanded utilization exceeds ``beta``;
        * every active VM accrues requested time;
        * VMs on overloaded hosts accrue the full interval as overload
          downtime (Section 3.3 counts the host's whole overloading time
          against each VM on it);
        * per-VM migration downtime (from the migration engine) is added
          as reported.
        """
        if interval_seconds <= 0:
            raise ConfigurationError("interval must be > 0")
        arrays = datacenter.arrays
        self._ensure_host_capacity(datacenter.num_pms)
        self._ensure_vm_capacity(datacenter.num_vms)
        interval = interval_seconds

        active_ids = np.flatnonzero(arrays.active_pm_mask())
        new_hosts = active_ids[~self._host_seen[active_ids]]
        for pm_id in new_hosts:
            pm_key = int(pm_id)
            self.hosts[pm_key] = HostSlaRecord(self, pm_key)
            self._host_seen[pm_key] = True
        self._host_active_s[active_ids] += interval
        overloaded_mask = arrays.overloaded_pm_mask(self.beta)
        self._host_overload_s[np.flatnonzero(overloaded_mask)] += interval

        placed = arrays.host_of >= 0
        eligible = placed & arrays.vm_active
        eligible_ids = np.flatnonzero(eligible)
        self._vm_requested_s[eligible_ids] += interval
        on_overloaded = np.zeros_like(eligible)
        on_overloaded[eligible_ids] = overloaded_mask[
            arrays.host_of[eligible_ids]
        ]
        overloaded_vm_ids = np.flatnonzero(on_overloaded)
        self._vm_over_down_s[overloaded_vm_ids] += interval

        # New VM records in first-seen order: host id ascending, VM id
        # ascending within a host (a per-host scan's visiting order).
        new_ids = eligible_ids[~self._vm_seen[eligible_ids]]
        if new_ids.size:
            order = np.lexsort((new_ids, arrays.host_of[new_ids]))
            for vm_id in new_ids[order].tolist():
                self._track_vm(vm_id)

        # Every VM in the step (eligible or migrated) requests the whole
        # interval; its downtime is capped at that.
        num = self._buf_down.shape[0]
        down = self._buf_down
        in_step = self._buf_in_step
        down[:num] = 0.0
        in_step[:num] = False
        down[overloaded_vm_ids] = interval
        in_step[eligible_ids] = True
        for vm_id, seconds in dict(migration_downtime).items():
            self.vm_record(vm_id).migration_downtime_seconds += seconds
            # Buffers may have been reallocated by vm_record's growth.
            down = self._buf_down
            in_step = self._buf_in_step
            down[vm_id] += seconds
            in_step[vm_id] = True

        participants = np.flatnonzero(in_step)
        if participants.size:
            self._record_window_batch(
                participants,
                np.minimum(down[participants], interval),
                interval,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def downtime_fraction(self, vm_id: int) -> float:
        """Windowed downtime fraction for a VM (0 if never seen)."""
        record = self.vms.get(vm_id)
        return record.downtime_fraction if record else 0.0

    def fractions_with_downtime(self) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``(vm_ids, fractions)`` over the tracked VMs whose
        billing window holds a non-zero downtime entry.

        Every other tracked VM's windowed fraction is exactly zero.  Ids
        come back in first-seen order (the ``vms`` dict order), so a
        cost model summing per-VM terms over this vector accumulates in
        the order the per-record loop would.
        """
        order = self._vm_order[: len(self.vms)]
        vm_ids = order[self._win_downtime_count[order] > 0]
        return vm_ids, self._window_fraction_rows(vm_ids)

    def overall_sla_violation(self) -> float:
        """Mean lifetime downtime fraction across VMs — a QoS summary."""
        if not self.vms:
            return 0.0
        return ordered_sum(
            r.cumulative_downtime_fraction for r in self.vms.values()  # meghlint: ignore[MEGH009] -- cold path: end-of-run summary
        ) / len(self.vms)
