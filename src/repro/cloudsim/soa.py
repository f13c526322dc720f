"""Struct-of-arrays backing store for the datacenter hot state.

The per-step simulator pipeline (workload application, CPU sharing, SLA
accounting, power evaluation, overload/metrics queries) reads and writes
the *same* per-VM and per-PM quantities many times per interval.  The
pre-vectorization :class:`~repro.cloudsim.datacenter.Datacenter` stored
them on Python objects and re-summed per-host aggregates from scratch on
every query; at the paper's scale (N=1052 VMs, M=800 PMs) those scans
dominated the step time.

:class:`DatacenterArrays` keeps the dynamic state in dense NumPy vectors
indexed by entity id — ``host_of[vm_id]`` (−1 = unplaced),
``vm_demand``, ``vm_delivered``, ``vm_active`` — plus
per-PM aggregates (``pm_demand_mips``, ``pm_ram_used_mb``, …) that are
rebuilt *lazily*: mutations only flip a dirty flag, and the first query
after a mutation rebuilds the aggregate with one vectorized
``np.bincount`` pass over the placed VMs in ascending-id order.

Bit-identity contract
---------------------
Aggregates are deliberately **not** maintained incrementally with
``+=``/``-=`` on floats: accumulated rounding dust would make them drift
from a freshly-computed sum, breaking the golden decision traces.
Instead every rebuild is a left-to-right sum over VMs in ascending id
order (``np.bincount`` adds weights in the order given, which is
bit-identical to the equivalent Python loop), so any query returns
exactly what the reference object-model implementation returns.  The
per-PM *counts* are maintained incrementally — integer arithmetic is
exact.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DatacenterArrays"]


class DatacenterArrays:
    """Dense per-entity state vectors plus lazily-rebuilt PM aggregates.

    Attributes (all indexed by entity id):
        host_of: ``int64[N]`` — hosting PM id, −1 when unplaced.
        vm_demand: ``float64[N]`` — demanded CPU utilization fraction.
        vm_delivered: ``float64[N]`` — delivered CPU utilization fraction.
        vm_active: ``bool[N]`` — whether the VM has a running workload.
        vm_mips / vm_ram_mb / vm_bandwidth_mbps: static VM capacities.
        pm_mips / pm_ram_mb / pm_bandwidth_mbps: static PM capacities.
        pm_asleep: ``bool[M]`` — sleeping hosts draw no power.
        pm_vm_count: ``int64[M]`` — VMs placed per host (incremental).
    """

    def __init__(self, num_vms: int, num_pms: int) -> None:
        self.num_vms = num_vms
        self.num_pms = num_pms
        # Static capacities (filled by Datacenter when binding entities).
        self.vm_mips = np.zeros(num_vms, dtype=np.float64)
        self.vm_ram_mb = np.zeros(num_vms, dtype=np.float64)
        self.vm_bandwidth_mbps = np.zeros(num_vms, dtype=np.float64)
        self.pm_mips = np.zeros(num_pms, dtype=np.float64)
        self.pm_ram_mb = np.zeros(num_pms, dtype=np.float64)
        self.pm_bandwidth_mbps = np.zeros(num_pms, dtype=np.float64)
        # Dynamic per-VM state.
        self.vm_demand = np.zeros(num_vms, dtype=np.float64)
        self.vm_delivered = np.zeros(num_vms, dtype=np.float64)
        self.vm_active = np.ones(num_vms, dtype=bool)
        self.host_of = np.full(num_vms, -1, dtype=np.int64)
        # Dynamic per-PM state.
        self.pm_asleep = np.zeros(num_pms, dtype=bool)
        self.pm_vm_count = np.zeros(num_pms, dtype=np.int64)
        # Lazily-rebuilt aggregates and their dirty flags.
        self._pm_ram_used = np.zeros(num_pms, dtype=np.float64)
        self._pm_demand_mips = np.zeros(num_pms, dtype=np.float64)
        self._pm_delivered_mips = np.zeros(num_pms, dtype=np.float64)
        self._ram_dirty = True
        self._demand_dirty = True
        self._delivered_dirty = True
        # Derived-vector caches keyed on aggregate rebuild generations:
        # the dirty flags above answer "is the aggregate itself stale?";
        # the generation counter answers the second-order question "has
        # the aggregate been *rebuilt* since this derived vector was
        # computed from it?" — so derived caches stay fresh without
        # adding new flags to the declared invariant table.
        self._ram_rebuilds = 0
        self._pm_ram_free = np.zeros(num_pms, dtype=np.float64)
        self._ram_free_gen = -1

    # ------------------------------------------------------------------
    # Dirty-flag management
    # ------------------------------------------------------------------
    def mark_placement_dirty(self) -> None:
        """A place/remove/move invalidates every per-PM aggregate."""
        self._ram_dirty = True
        self._demand_dirty = True
        self._delivered_dirty = True

    def mark_demand_dirty(self) -> None:
        self._demand_dirty = True

    def mark_delivered_dirty(self) -> None:
        self._delivered_dirty = True

    def mark_activity_dirty(self) -> None:
        """Deactivation zeroes demand and delivered at once."""
        self._demand_dirty = True
        self._delivered_dirty = True

    # ------------------------------------------------------------------
    # Slot lifecycle (service-mode churn; see repro.service)
    # ------------------------------------------------------------------
    def bind_vm_slot(
        self, index: int, mips: float, ram_mb: float, bandwidth_mbps: float
    ) -> None:
        """Give a reused slot a new arrival's capacities.

        The slot starts unplaced, active, with zero demand — the service
        loop places it and applies its workload afterwards.
        """
        self.vm_mips[index] = mips
        self.vm_ram_mb[index] = ram_mb
        self.vm_bandwidth_mbps[index] = bandwidth_mbps
        self.vm_demand[index] = 0.0
        self.vm_delivered[index] = 0.0
        self.vm_active[index] = True
        self.host_of[index] = -1
        self.mark_placement_dirty()

    def clear_vm_slot(self, index: int) -> None:
        """Retire a departed VM's slot: inactive, unplaced, zero demand.

        The caller must have removed the VM from its host first (the
        placement aggregates are marked dirty here regardless, so a
        same-step reuse rebuilds from consistent state).
        """
        self.vm_mips[index] = 0.0
        self.vm_ram_mb[index] = 0.0
        self.vm_bandwidth_mbps[index] = 0.0
        self.vm_demand[index] = 0.0
        self.vm_delivered[index] = 0.0
        self.vm_active[index] = False
        self.host_of[index] = -1
        self.mark_placement_dirty()

    # ------------------------------------------------------------------
    # Lazily-rebuilt per-PM aggregates
    # ------------------------------------------------------------------
    def _sum_by_host(self, weights: np.ndarray) -> np.ndarray:
        """Per-PM sums of ``weights`` over placed VMs, ascending id order.

        ``np.bincount`` accumulates the weights in the order they are
        given; feeding placed VMs in ascending id order makes each
        per-PM sum bit-identical to the reference implementation's
        left-to-right Python loop over ``sorted(vms_on(pm))``.
        """
        placed = np.flatnonzero(self.host_of >= 0)
        return np.bincount(
            self.host_of[placed],
            weights=weights[placed],
            minlength=self.num_pms,
        )

    def pm_ram_used_mb(self) -> np.ndarray:
        if self._ram_dirty:
            self._pm_ram_used = self._sum_by_host(self.vm_ram_mb)
            self._ram_dirty = False
            self._ram_rebuilds += 1
        return self._pm_ram_used

    def pm_demand_mips(self) -> np.ndarray:
        if self._demand_dirty:
            self._pm_demand_mips = self._sum_by_host(
                self.vm_demand * self.vm_mips
            )
            self._demand_dirty = False
        return self._pm_demand_mips

    def pm_delivered_mips(self) -> np.ndarray:
        if self._delivered_dirty:
            self._pm_delivered_mips = self._sum_by_host(
                self.vm_delivered * self.vm_mips
            )
            self._delivered_dirty = False
        return self._pm_delivered_mips

    # ------------------------------------------------------------------
    # Derived vectors used by the per-step pipeline
    # ------------------------------------------------------------------
    def pm_ram_free_mb(self) -> np.ndarray:
        """RAM still available per host (``pm_ram_mb − pm_ram_used_mb``).

        Cached against :attr:`_ram_rebuilds`: the subtraction reruns only
        when the RAM aggregate was actually rebuilt, so candidate
        generation and placement queues that query it many times per
        step pay one vector subtract per mutation, not per query.  The
        cache additionally relies on PM RAM capacities being static
        after binding (``PhysicalMachine`` has no post-bind capacity
        setter), matching the invariant table's note that capacity
        vectors carry no dirty flag.
        """
        used = self.pm_ram_used_mb()
        if self._ram_free_gen != self._ram_rebuilds:
            self._pm_ram_free = self.pm_ram_mb - used
            self._ram_free_gen = self._ram_rebuilds
        return self._pm_ram_free

    def pm_demand_utilization(self) -> np.ndarray:
        """Demanded load fraction per host (can exceed 1)."""
        return self.pm_demand_mips() / self.pm_mips

    def pm_delivered_utilization(self) -> np.ndarray:
        """Delivered load fraction per host, capped at 1."""
        return np.minimum(1.0, self.pm_delivered_mips() / self.pm_mips)

    def active_pm_mask(self) -> np.ndarray:
        """Hosts currently serving at least one VM."""
        return self.pm_vm_count > 0

    def overloaded_pm_mask(self, beta: float) -> np.ndarray:
        """Non-empty hosts whose CPU demand exceeds the threshold — the
        same predicate as ``Datacenter.is_overloaded``."""
        return (self.pm_demand_utilization() > beta) & self.active_pm_mask()
