"""Power-aware best-fit-decreasing placement (PABFD).

Given VMs to place, PABFD sorts them by CPU demand (decreasing) and puts
each on the host whose power draw increases the least, among hosts with
enough free RAM whose post-placement utilization stays under the safety
threshold.  This is the placement stage shared by every MMT variant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloudsim.datacenter import Datacenter


class PlacementContext:
    """Per-host PABFD invariants and per-VM scores of one planning round.

    Planning never mutates the datacenter and every PABFD call starts
    from zero pending commitments, so the per-host vectors below are the
    same for every call of one ``decide()``: free RAM, demanded MIPS,
    capacity, the wake cost of sleeping hosts (``P(0)``) and each host's
    "before" power ``P(min(1, demand / mips))``.  So is each VM's score
    on every host at zero pending, ``(P(after) − P(before)) + wake``:
    :meth:`prime` computes the scores of every VM a round may place in
    one 2-D pass.  Build a fresh context whenever the datacenter's
    placement or demand may have changed.

    Empty hosts with equal operands (power model, capacity, free RAM,
    demand, wake cost) are *twins*: no VM's source, so every VM scores
    them alike, and the lowest id wins the tie.  A class of twins is
    primed as one column; a call of ``k`` VMs only needs the class's
    first ``k`` non-excluded members, since at most ``k − 1`` of them
    take a commitment before its last VM is placed.  On a fleet with
    most hosts asleep this shrinks the score matrix by an order of
    magnitude without changing a plan.
    """

    def __init__(self, datacenter: Datacenter) -> None:
        arrays = datacenter.arrays
        self.arrays = arrays
        self.ram_free = arrays.pm_ram_free_mb()
        self.pm_demand = arrays.pm_demand_mips()
        self.pm_mips = arrays.pm_mips
        self.groups = datacenter.power_groups()
        utilization = np.minimum(1.0, self.pm_demand / self.pm_mips)
        self.before = np.empty(arrays.num_pms, dtype=np.float64)
        self.wake = np.zeros(arrays.num_pms, dtype=np.float64)
        # Group index per host: one power_batch per group scores a VM.
        self.group_of = np.empty(arrays.num_pms, dtype=np.int64)
        for index, (model, pm_ids) in enumerate(self.groups):
            self.group_of[pm_ids] = index
            self.before[pm_ids] = model.power_batch(utilization[pm_ids])
            self.wake[pm_ids[arrays.pm_asleep[pm_ids]]] = model.power(0.0)
        # Twin classes of two or more members, ids ascending, keyed by
        # their first member; every other host is primed on its own.
        empty = np.flatnonzero(arrays.pm_vm_count == 0)
        operands = np.stack(
            [
                self.group_of[empty],
                self.pm_mips[empty],
                self.ram_free[empty],
                self.pm_demand[empty],
                self.wake[empty],
            ],
            axis=1,
        )
        _, inverse, counts = np.unique(
            operands, axis=0, return_inverse=True, return_counts=True
        )
        by_class = empty[np.argsort(inverse.ravel(), kind="stable")]
        classes = np.split(by_class, np.cumsum(counts)[:-1])
        self.twins = {
            int(members[0]): members
            for members in classes
            if members.size > 1
        }
        hidden = np.zeros(arrays.num_pms, dtype=bool)
        for members in self.twins.values():
            hidden[members[1:]] = True
        self.base = np.flatnonzero(~hidden)
        # Primed scores: one row per VM, one column per base host that
        # is feasible for at least one of them.
        self.threshold: Optional[float] = None
        self.row_of = np.full(arrays.num_vms, -1, dtype=np.int64)
        self.row_mips = np.empty(0, dtype=np.float64)
        self.row_ram = np.empty(0, dtype=np.float64)
        self.columns = np.empty(0, dtype=np.int64)
        self.scores = np.empty((0, 0), dtype=np.float64)
        self._singles = np.empty(0, dtype=np.int64)
        self._twin_columns: List[Tuple[int, np.ndarray]] = []
        self._layouts: Dict[int, Tuple[np.ndarray, ...]] = {}
        self.budget = np.empty(0, dtype=np.float64)

    def power(self, pm_ids: np.ndarray, utilization: np.ndarray) -> np.ndarray:
        """Each host's power model evaluated at its ``utilization``."""
        watts = np.empty(pm_ids.size, dtype=np.float64)
        group_of = self.group_of[pm_ids]
        for index, (model, _) in enumerate(self.groups):
            members = group_of == index
            watts[members] = model.power_batch(utilization[members])
        return watts

    def prime(self, vm_ids: Iterable[int], threshold: float) -> None:
        """Score every base host for each of ``vm_ids`` at zero pending.

        A score is ``inf`` where the host lacks the RAM, would pass
        ``threshold`` of its capacity, or is the VM's source.  Only the
        feasible (VM, host) pairs are evaluated, and only hosts feasible
        for some VM get a column.  Replaces any earlier priming.
        """
        arrays = self.arrays
        vm_ids = np.asarray(list(vm_ids), dtype=np.int64)
        mips = arrays.vm_demand[vm_ids] * arrays.vm_mips[vm_ids]
        ram = arrays.vm_ram_mb[vm_ids]
        base = self.base
        self.budget = threshold * self.pm_mips
        feasible = (ram[:, None] <= self.ram_free[base]) & (
            self.pm_demand[base] + mips[:, None] <= self.budget[base]
        )
        sources = arrays.host_of[vm_ids]
        placed = np.flatnonzero(sources >= 0)
        feasible[placed, np.searchsorted(base, sources[placed])] = False
        kept = np.flatnonzero(feasible.any(axis=0))
        columns = base[kept]
        rows, cols = np.nonzero(feasible[:, kept])
        hosts = columns[cols]
        after = np.minimum(
            1.0, (self.pm_demand[hosts] + mips[rows]) / self.pm_mips[hosts]
        )
        scores = np.full((vm_ids.size, columns.size), np.inf)
        scores[rows, cols] = (
            self.power(hosts, after) - self.before[hosts]
        ) + self.wake[hosts]
        self.threshold = threshold
        self.row_of[self.row_of >= 0] = -1
        self.row_of[vm_ids] = np.arange(vm_ids.size)
        self.row_mips, self.row_ram = mips, ram
        self.columns, self.scores = columns, scores
        self._twin_columns = [
            (col, self.twins[pm_id])
            for col, pm_id in enumerate(columns.tolist())
            if pm_id in self.twins
        ]
        singles = np.ones(columns.size, dtype=bool)
        singles[[col for col, _ in self._twin_columns]] = False
        self._singles = np.flatnonzero(singles)
        self._layouts = {}

    def rows(self, vm_ids: Sequence[int], threshold: float) -> np.ndarray:
        """Score rows of ``vm_ids``, priming them first when needed."""
        rows = self.row_of[np.asarray(vm_ids, dtype=np.int64)]
        if threshold != self.threshold or np.any(rows < 0):
            self.prime(vm_ids, threshold)
            rows = self.row_of[np.asarray(vm_ids, dtype=np.int64)]
        return rows

    def call_columns(
        self, count: int, excluded: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hosts a call of ``count`` VMs scores, and their primed columns.

        Every primed host, with each twin class expanded to its first
        ``count`` members not ``excluded``; ascending host id.  The
        layout without exclusions is cached per ``count``: it serves
        every call that excludes none of its twin members.
        """
        layout = self._layouts.get(count)
        if layout is None:
            layout = self._layouts[count] = self._layout(count, None)
        pm_ids, cols, twin_members = layout
        if excluded[twin_members].any():
            pm_ids, cols, _ = self._layout(count, excluded)
        return pm_ids, cols

    def _layout(
        self, count: int, excluded: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        hosts = [self.columns[self._singles]]
        cols = [self._singles]
        for col, members in self._twin_columns:
            if excluded is not None:
                members = members[~excluded[members]]
            members = members[:count]
            hosts.append(members)
            cols.append(np.full(members.size, col))
        pm_ids = np.concatenate(hosts)
        order = np.argsort(pm_ids)
        twin_members = np.concatenate(hosts[1:] or [pm_ids[:0]])
        return pm_ids[order], np.concatenate(cols)[order], twin_members


def _excluded_mask(excluded_hosts, num_pms: int) -> np.ndarray:
    """``excluded_hosts`` (host ids, or a boolean mask) as a mask."""
    excluded = np.asarray(excluded_hosts)
    if excluded.dtype == bool:
        return excluded
    mask = np.zeros(num_pms, dtype=bool)
    mask[excluded.astype(np.int64)] = True
    return mask


def power_aware_best_fit(
    datacenter: Datacenter,
    vm_ids: Iterable[int],
    threshold: float,
    excluded_hosts: Union[Sequence[int], np.ndarray] = (),
    context: Optional[PlacementContext] = None,
) -> Dict[int, int]:
    """Plan destinations for ``vm_ids`` (PABFD).

    Returns a partial ``vm_id -> pm_id`` map: VMs for which no feasible
    host exists are simply absent (they stay where they are).  The plan
    respects RAM capacity and keeps every destination's demanded
    utilization at or below ``threshold``, accounting for VMs placed
    earlier in the same plan.  ``excluded_hosts`` are host ids, or a
    boolean mask over all hosts.  ``context`` shares the per-host
    invariants and primed VM scores between the calls of one planning
    round; without it the call builds its own.
    """
    excluded = _excluded_mask(excluded_hosts, datacenter.num_pms)
    vm_ids = list(vm_ids)
    if context is None:
        context = PlacementContext(datacenter)
    plan: Dict[int, int] = {}
    rows = context.rows(vm_ids, threshold)
    pm_ids, cols = context.call_columns(len(vm_ids), excluded)
    if pm_ids.size == 0:
        return plan
    # Each VM's row holds its zero-pending score on every host of the
    # call, primed with the same operands as the historical per-PM scan
    # (kept as the test oracle ``tests/oracles/pabfd.py``) — load
    # ``(demand + pending) + vm_demand``, room ``free − pending``,
    # increase ``(P(after) − P(before)) + wake``.  Within the call only
    # excluded hosts (``inf``) and hosts this call has committed VMs to
    # (re-scored below with their pending load) differ from the primed
    # row; pending load only adds, so a host infeasible at zero pending
    # stays infeasible.  ``argmin`` keeps the first minimiser like the
    # scan's strict ``<`` in ascending id order, so the plan is
    # bit-identical to the scalar version's.
    scores = context.scores[rows[:, None], cols]
    scores[:, excluded[pm_ids]] = np.inf
    vm_mips = context.row_mips[rows]
    vm_ram = context.row_ram[rows].tolist()
    budget = context.budget
    # Per committed column: [pending MIPS, pending RAM, load, room, P(load)].
    committed: Dict[int, List[float]] = {}
    for index in np.argsort(-vm_mips, kind="stable").tolist():
        row = scores[index]
        mips = float(vm_mips[index])
        ram = vm_ram[index]
        for col, (_, _, load, room, before) in committed.items():
            if row[col] == np.inf:
                continue
            pm_id = int(pm_ids[col])
            if ram > room or load + mips > budget[pm_id]:
                row[col] = np.inf
                continue
            model = context.groups[context.group_of[pm_id]][0]
            after = min(1.0, (load + mips) / context.pm_mips[pm_id])
            row[col] = (model.power(after) - before) + context.wake[pm_id]
        best = int(row.argmin())
        if row[best] == np.inf:
            continue
        pm_id = int(pm_ids[best])
        plan[vm_ids[index]] = pm_id
        pending = committed.setdefault(best, [0.0, 0.0, 0.0, 0.0, 0.0])
        pending[0] += mips
        pending[1] += ram
        # Recompute (not ``+=``) the load and room so they equal the
        # scan's ``demand + pending`` and ``free − pending`` exactly.
        pending[2] = float(context.pm_demand[pm_id] + pending[0])
        pending[3] = float(context.ram_free[pm_id] - pending[1])
        model = context.groups[context.group_of[pm_id]][0]
        pending[4] = model.power(
            min(1.0, pending[2] / float(context.pm_mips[pm_id]))
        )
    return plan


def hosts_by_utilization(datacenter: Datacenter) -> List[int]:
    """Active hosts ordered by demanded utilization, least loaded first.

    One masked stable argsort — ties keep ascending host-id order, the
    same as the historical stable ``sorted`` over ``active_pm_ids()``.
    """
    arrays = datacenter.arrays
    active = np.flatnonzero(arrays.active_pm_mask())
    util = arrays.pm_demand_utilization()
    return active[np.argsort(util[active], kind="stable")].tolist()
