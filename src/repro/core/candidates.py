"""Array-native candidate generation over :class:`DatacenterArrays`.

Candidate generation was the last per-entity Python loop on the
``decide()`` hot path: the scalar pipeline in
:class:`~repro.core.agent.MeghScheduler` walked ``vms_on`` sets,
``vm(id).is_active`` views and per-PM ``demanded_utilization`` floats
one entity at a time — O(candidate VMs × PMs) interpreter work per
step.  :class:`CandidateIndex` produces the **same ordered candidate
lists bit-identically** as whole-fleet NumPy passes:

* **source selection** — overloaded-PM membership, the underload
  partition, and the easiest-to-empty sort run as masked ``argsort``
  passes whose stable kind reproduces the scalar path's ascending-id
  tie-breaks exactly;
* **feasibility** — RAM-fits and no-new-overload are evaluated for all
  (candidate VM × PM) pairs in one broadcast against precomputed
  headroom-budget vectors, honouring ``destination_headroom``,
  ``allow_empty_hosts`` and the most-utilized-first proposal order;
* **materialization** — the result is a :class:`CandidatePlan` of flat
  ``int64`` arrays (``dest_pm``, row ``offsets``, fused
  ``action_indices = vm_id * M + pm_id``) that feed
  :meth:`~repro.core.lstd.SparseLstd.q_values` directly, with no
  per-action ``MigrationAction`` objects on the hot path.

Bit-identity contract
---------------------
Every float comparison evaluates the *same operations on the same
operands in the same order* as the scalar oracle
(``MeghScheduler._candidate_actions`` / ``_destinations_for`` /
``_feasible_destinations``, retained exactly for this purpose):
budgets are ``(headroom * beta) * pm_mips`` — the left-to-right
association of the scalar ``headroom * self.beta * pm.mips`` — demand
sums are ``pm_demand + vm_demand_mips`` in the scalar operand order,
and every ordering pass uses a stable sort over the identical keys.
The randomized differential oracle (``tests/core/test_candidates.py``)
and the golden decision traces pin this element for element.

Scratch discipline: the K×M broadcast buffers are owned by the index
and reused across steps (reallocated only when the fleet or the
candidate cap grows), so steady-state planning does no per-step
ndarray allocation proportional to K×M.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.config import MeghConfig
from repro.mdp.action import MigrationAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cloudsim.datacenter import Datacenter
    from repro.cloudsim.soa import DatacenterArrays

__all__ = ["CandidatePlan", "CandidateIndex"]


class CandidatePlan:
    """One step's ordered candidate lists as flat parallel arrays.

    Row ``r`` describes candidate VM ``vm_ids[r]`` (hosted on
    ``sources[r]``); its ordered action list is
    ``dest_pm[offsets[r]:offsets[r + 1]]`` with the fused one-hot
    coordinates in the same slice of ``action_indices``.  ``mandatory``
    marks rows whose source host is overloaded (relief rows: no
    hysteresis margin, and moves are prioritized by the selection cap).
    """

    __slots__ = (
        "vm_ids",
        "sources",
        "mandatory",
        "dest_pm",
        "offsets",
        "action_indices",
        "num_pms",
    )

    def __init__(
        self,
        vm_ids: np.ndarray,
        sources: np.ndarray,
        mandatory: np.ndarray,
        dest_pm: np.ndarray,
        offsets: np.ndarray,
        action_indices: np.ndarray,
        num_pms: int,
    ) -> None:
        self.vm_ids = vm_ids
        self.sources = sources
        self.mandatory = mandatory
        self.dest_pm = dest_pm
        self.offsets = offsets
        self.action_indices = action_indices
        self.num_pms = num_pms

    @property
    def num_rows(self) -> int:
        """Number of candidate VMs (rows)."""
        return int(self.vm_ids.shape[0])

    @property
    def num_actions(self) -> int:
        """Total number of candidate actions across all rows."""
        return int(self.dest_pm.shape[0])

    def to_action_lists(self) -> List[List[MigrationAction]]:
        """Materialize the per-VM ``MigrationAction`` lists.

        Cold path for the differential oracle and inspection — the hot
        path feeds ``action_indices`` to the learner directly.
        """
        lists: List[List[MigrationAction]] = []
        offsets = self.offsets
        for r in range(self.num_rows):
            vm_id = int(self.vm_ids[r])
            lists.append(
                [
                    MigrationAction(vm_id=vm_id, dest_pm_id=int(pm_id))
                    for pm_id in self.dest_pm[offsets[r] : offsets[r + 1]]
                ]
            )
        return lists


class CandidateIndex:
    """Vectorized candidate pipeline bound to one datacenter's arrays.

    Args:
        beta: host CPU overload threshold (matches the agent's).
        bandwidth_beta: optional network overload threshold.
        config: the agent's :class:`~repro.config.MeghConfig` —
            ``consolidate_underloaded``, ``underload_threshold``,
            ``max_candidate_vms``, ``candidate_destinations`` and
            ``destination_headroom`` shape the candidate set.

    The index binds lazily to ``datacenter.arrays`` on first use and
    rebinds automatically if the datacenter (or fleet size) changes;
    the static headroom-budget vectors and the K×M scratch buffers are
    computed once per binding.
    """

    def __init__(
        self,
        beta: float,
        bandwidth_beta: Optional[float],
        config: MeghConfig,
    ) -> None:
        self.beta = beta
        self.bandwidth_beta = bandwidth_beta
        self.config = config
        self._arrays: Optional["DatacenterArrays"] = None
        self._mips_budget = np.empty(0, dtype=np.float64)
        self._mips_budget_full = np.empty(0, dtype=np.float64)
        self._bw_budget = np.empty(0, dtype=np.float64)
        self._bw_budget_full = np.empty(0, dtype=np.float64)
        # K×M scratch (grown on demand, reused across steps).
        self._rows_capacity = 0
        self._feas = np.empty((0, 0), dtype=bool)
        self._aux = np.empty((0, 0), dtype=bool)
        self._tmp = np.empty((0, 0), dtype=np.float64)

    # ------------------------------------------------------------------
    # Binding and scratch management
    # ------------------------------------------------------------------
    def _bind(self, arrays: "DatacenterArrays") -> None:
        """Precompute static budget vectors for this fleet.

        ``(headroom * beta) * pm_mips`` reproduces the scalar oracle's
        left-to-right ``headroom * self.beta * pm.mips`` association;
        the full-budget fallback uses ``headroom = 1.0`` whose product
        is bitwise the plain ``beta`` budget.  PM capacities are static
        after binding, so these never need invalidation.
        """
        self._arrays = arrays
        headroom = self.config.destination_headroom
        self._mips_budget = (headroom * self.beta) * arrays.pm_mips
        self._mips_budget_full = (1.0 * self.beta) * arrays.pm_mips
        if self.bandwidth_beta is not None:
            self._bw_budget = (
                headroom * self.bandwidth_beta
            ) * arrays.pm_bandwidth_mbps
            self._bw_budget_full = (
                1.0 * self.bandwidth_beta
            ) * arrays.pm_bandwidth_mbps
        self._rows_capacity = 0

    def _scratch(self, num_rows: int, num_pms: int):
        """Reusable K×M broadcast buffers, grown geometrically."""
        if (
            num_rows > self._rows_capacity
            or self._feas.shape[1] != num_pms
        ):
            capacity = max(num_rows, 2 * self._rows_capacity, 32)
            self._rows_capacity = capacity
            self._feas = np.empty((capacity, num_pms), dtype=bool)
            self._aux = np.empty((capacity, num_pms), dtype=bool)
            self._tmp = np.empty((capacity, num_pms), dtype=np.float64)
        return (
            self._feas[:num_rows],
            self._aux[:num_rows],
            self._tmp[:num_rows],
        )

    # ------------------------------------------------------------------
    # Source selection (which VMs are candidates, in which order)
    # ------------------------------------------------------------------
    def _candidate_vm_rows(
        self,
        arrays: "DatacenterArrays",
        overloaded: np.ndarray,
        util: np.ndarray,
    ) -> np.ndarray:
        """Ordered, deduplicated candidate VM ids (the plan's rows).

        Reproduces the scalar ordering exactly: VMs on overloaded hosts
        first (hosts ascending, VM ids ascending within a host), then
        VMs on underloaded hosts with the easiest-to-empty hosts first
        (stable sort by placed-VM count — inactive VMs included, as in
        ``len(vms_on(pm))``), the ``max_candidate_vms`` cap applied
        *before* the order-preserving dedup.
        """
        host_of = arrays.host_of
        placed_active = np.flatnonzero(
            (host_of >= 0) & arrays.vm_active
        )
        hosts = host_of[placed_active]
        # Stable sort by host: groups ordered by ascending host id and,
        # within a host, by ascending VM id (placed_active is ascending).
        order = np.argsort(hosts, kind="stable")
        by_host = placed_active[order]
        host_sorted = hosts[order]
        source_vms = by_host[overloaded[host_sorted]]
        if self.config.consolidate_underloaded:
            under = (
                arrays.active_pm_mask()
                & (util > 0.0)
                & (util <= self.config.underload_threshold)
            )
            under_ids = np.flatnonzero(under)
            under_sorted = under_ids[
                np.argsort(arrays.pm_vm_count[under_ids], kind="stable")
            ]
            starts = np.searchsorted(host_sorted, under_sorted, side="left")
            ends = np.searchsorted(host_sorted, under_sorted, side="right")
            counts = ends - starts
            total = int(counts.sum()) if counts.shape[0] else 0
            if total:
                # Ragged gather: concatenate the per-host [start, end)
                # index ranges in easiest-to-empty host order.
                offsets = np.cumsum(counts)
                flat = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(offsets - counts, counts)
                    + np.repeat(starts, counts)
                )
                source_vms = np.concatenate((source_vms, by_host[flat]))
        cap = self.config.max_candidate_vms
        if cap:
            source_vms = source_vms[:cap]
        if source_vms.shape[0] == 0:
            return source_vms.astype(np.int64)
        # Order-preserving dedup (first occurrence wins, like the scalar
        # `seen` set): unique() returns first indices, re-sorted to the
        # original order.
        _, first = np.unique(source_vms, return_index=True)
        return source_vms[np.sort(first)]

    # ------------------------------------------------------------------
    # Feasibility (batched (VM × PM) broadcast)
    # ------------------------------------------------------------------
    def _feasibility(
        self,
        arrays: "DatacenterArrays",
        vm_rows: np.ndarray,
        sources: np.ndarray,
        mandatory: np.ndarray,
    ) -> tuple:
        """K×M feasibility mask plus full-budget fallback rows.

        A destination is feasible when the VM's RAM fits and the
        post-move demand stays within the headroom budget (CPU, and the
        network dimension when ``bandwidth_beta`` is set).
        Consolidation rows additionally require an occupied host;
        relief rows with *no* feasible destination fall back to the
        full beta budget (returned as per-row override vectors).
        """
        num_rows = int(vm_rows.shape[0])
        num_pms = arrays.num_pms
        feas, aux, tmp = self._scratch(num_rows, num_pms)
        ram_free = arrays.pm_ram_free_mb()
        pm_demand = arrays.pm_demand_mips()
        vm_ram = arrays.vm_ram_mb[vm_rows]
        vm_dmips = arrays.vm_demand[vm_rows] * arrays.vm_mips[vm_rows]
        np.less_equal(vm_ram[:, None], ram_free[None, :], out=feas)
        # Scalar operand order: demanded_mips(pm) + vm.demanded_mips.
        np.add(pm_demand[None, :], vm_dmips[:, None], out=tmp)
        np.less_equal(tmp, self._mips_budget[None, :], out=aux)
        np.logical_and(feas, aux, out=feas)
        pm_bw = None
        vm_bw = None
        if self.bandwidth_beta is not None:
            pm_bw = arrays.pm_bw_demand_mbps()
            vm_bw = (
                arrays.vm_bw_demand[vm_rows]
                * arrays.vm_bandwidth_mbps[vm_rows]
            )
            np.add(pm_bw[None, :], vm_bw[:, None], out=tmp)
            np.less_equal(tmp, self._bw_budget[None, :], out=aux)
            np.logical_and(feas, aux, out=feas)
        consolidation = np.flatnonzero(~mandatory)
        if consolidation.shape[0]:
            # Consolidation never wakes an empty host.
            feas[consolidation] &= arrays.active_pm_mask()[None, :]
        feas[np.arange(num_rows, dtype=np.int64), sources] = False
        # Relief rows with no destination under the safety headroom
        # retry at the full beta budget (allow_empty stays True).
        fallback: Dict[int, np.ndarray] = {}
        empty_relief = np.flatnonzero(
            mandatory & (np.count_nonzero(feas, axis=1) == 0)
        )
        for r in empty_relief.tolist():
            row = (vm_ram[r] <= ram_free) & (
                pm_demand + vm_dmips[r] <= self._mips_budget_full
            )
            if pm_bw is not None and vm_bw is not None:
                row &= pm_bw + vm_bw[r] <= self._bw_budget_full
            row[sources[r]] = False
            fallback[r] = row
        return feas, fallback

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def plan(self, datacenter: "Datacenter") -> CandidatePlan:
        """Build this step's candidate plan from the datacenter arrays.

        Evaluates the overload predicate exactly once per call (the
        scalar pipeline historically evaluated it four times per
        ``decide()``).
        """
        arrays = datacenter.arrays
        if arrays is not self._arrays:
            self._bind(arrays)
        overloaded = arrays.overloaded_pm_mask(
            self.beta, self.bandwidth_beta
        )
        util = arrays.pm_demand_utilization()
        vm_rows = self._candidate_vm_rows(arrays, overloaded, util)
        sources = arrays.host_of[vm_rows]
        mandatory = overloaded[sources]
        feas, fallback = self._feasibility(
            arrays, vm_rows, sources, mandatory
        )
        return self._materialize(
            vm_rows, sources, mandatory, feas, fallback, util, arrays.num_pms
        )

    def plan_from_lists(
        self,
        datacenter: "Datacenter",
        candidates: Sequence[Sequence[MigrationAction]],
    ) -> CandidatePlan:
        """Wrap scalar-oracle candidate lists in a plan.

        Lets ``decide()`` run its selection/learning pipeline on top of
        the retained scalar generator (``MeghScheduler._scalar_plan``)
        so the two generators are interchangeable downstream.  Uses
        only the generic datacenter
        protocol (``num_pms``, ``host_of``) so the reference
        object-model backend works too, and performs **no** overload
        evaluation of its own: a row is mandatory exactly when its first
        action is a real move — the scalar generator leads every
        consolidation row with the stay-put no-op, and for the ambiguous
        single-no-op relief row the mandatory flag is behaviourally inert
        (no move to prioritize, no margin to apply).
        """
        num_pms = datacenter.num_pms
        num_rows = len(candidates)
        vm_ids = np.empty(num_rows, dtype=np.int64)
        sources = np.empty(num_rows, dtype=np.int64)
        mandatory = np.empty(num_rows, dtype=bool)
        offsets = np.zeros(num_rows + 1, dtype=np.int64)
        segments: List[np.ndarray] = []
        for r, actions in enumerate(candidates):
            vm_id = actions[0].vm_id
            vm_ids[r] = vm_id
            source = int(datacenter.host_of(vm_id))
            sources[r] = source
            mandatory[r] = actions[0].dest_pm_id != source
            segments.append(
                np.fromiter(
                    (action.dest_pm_id for action in actions),
                    dtype=np.int64,
                    count=len(actions),
                )
            )
            offsets[r + 1] = offsets[r] + len(actions)
        dest_pm = (
            np.concatenate(segments)
            if segments
            else np.empty(0, dtype=np.int64)
        )
        action_indices = (
            np.repeat(vm_ids, np.diff(offsets)) * num_pms + dest_pm
        )
        return CandidatePlan(
            vm_ids=vm_ids,
            sources=sources,
            mandatory=mandatory,
            dest_pm=dest_pm,
            offsets=offsets,
            action_indices=action_indices,
            num_pms=num_pms,
        )

    def _materialize(
        self,
        vm_rows: np.ndarray,
        sources: np.ndarray,
        mandatory: np.ndarray,
        feas: np.ndarray,
        fallback: Dict[int, np.ndarray],
        util: np.ndarray,
        num_pms: int,
    ) -> CandidatePlan:
        """Assemble the flat plan rows in scalar-oracle order.

        Per row: feasible destinations in ascending PM-id order, or —
        when ``candidate_destinations`` bounds the proposal — the
        most-utilized feasible hosts first via a stable sort on the
        identical ``-utilization`` key; the stay-put no-op leads the
        row unless the source is overloaded *and* destinations exist.
        """
        limit = self.config.candidate_destinations
        num_rows = int(vm_rows.shape[0])
        neg_util = -util
        segments: List[np.ndarray] = []
        lengths = np.empty(num_rows, dtype=np.int64)
        noop_flags = np.empty(num_rows, dtype=bool)
        for r in range(num_rows):
            override = fallback.get(r)
            row = feas[r] if override is None else override
            dests = np.flatnonzero(row)
            if limit and dests.shape[0] > limit:
                dests = dests[
                    np.argsort(neg_util[dests], kind="stable")[:limit]
                ]
            noop = (not mandatory[r]) or dests.shape[0] == 0
            noop_flags[r] = noop
            lengths[r] = dests.shape[0] + (1 if noop else 0)
            segments.append(dests)
        offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        dest_pm = np.empty(int(offsets[-1]), dtype=np.int64)
        for r in range(num_rows):
            position = int(offsets[r])
            if noop_flags[r]:
                dest_pm[position] = sources[r]
                position += 1
            segment = segments[r]
            dest_pm[position : position + segment.shape[0]] = segment
        action_indices = np.repeat(vm_rows, lengths) * num_pms + dest_pm
        return CandidatePlan(
            vm_ids=vm_rows,
            sources=sources,
            mandatory=mandatory,
            dest_pm=dest_pm,
            offsets=offsets,
            action_indices=action_indices,
            num_pms=num_pms,
        )
