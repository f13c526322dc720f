"""Power-aware best-fit-decreasing placement (PABFD).

Given VMs to place, PABFD sorts them by CPU demand (decreasing) and puts
each on the host whose power draw increases the least, among hosts with
enough free RAM whose post-placement utilization stays under the safety
threshold.  This is the placement stage shared by every MMT variant.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cloudsim.datacenter import Datacenter
from repro.cloudsim.power import LinearPowerModel, SpecPowerModel
from repro.core import kern


class PlacementContext:
    """Per-host PABFD invariants and per-VM scores of one planning round.

    Planning never mutates the datacenter and every PABFD call starts
    from zero pending commitments, so the per-host vectors below are the
    same for every call of one ``decide()``: free RAM, demanded MIPS,
    capacity, the wake cost of sleeping hosts (``P(0)``) and each host's
    "before" power ``P(min(1, demand / mips))``.  So is each VM's score
    on every host at zero pending, ``(P(after) − P(before)) + wake``:
    :meth:`prime` computes the scores of every VM a round may place in
    one 2-D pass per power model and keeps only the feasible ones, row
    by row.  Build a fresh context whenever the datacenter's placement
    or demand may have changed.

    Empty hosts with equal operands (power model, capacity, free RAM,
    demand, wake cost) are *twins*: no VM's source, so every VM scores
    them alike, and the lowest free id wins the tie.  A class of twins
    is primed once, under its first member; a call resolves it to the
    lowest member it neither excludes nor has committed to.  On a fleet
    with most hosts asleep this shrinks the primed scores by an order of
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
        # Group index per host.
        self.group_of = np.empty(arrays.num_pms, dtype=np.int64)
        for index, (model, pm_ids) in enumerate(self.groups):
            self.group_of[pm_ids] = index
            self.before[pm_ids] = model.power_batch(utilization[pm_ids])
            self.wake[pm_ids[arrays.pm_asleep[pm_ids]]] = model.power(0.0)
        # Twin classes: sort the empty hosts by their operands (a stable
        # sort, so members stay in ascending id order) and cut where
        # adjacent rows differ.  Classes of two or more members are keyed
        # by their first member; every other host is primed on its own.
        empty = np.flatnonzero(arrays.pm_vm_count == 0)
        operands = [
            self.wake[empty],
            self.pm_demand[empty],
            self.ram_free[empty],
            self.pm_mips[empty],
            self.group_of[empty],
        ]
        order = np.lexsort(operands)
        by_class = empty[order]
        same = np.ones(max(empty.size - 1, 0), dtype=bool)
        for operand in operands:
            ranked = operand[order]
            same &= ranked[1:] == ranked[:-1]
        first = np.ones(empty.size, dtype=bool)
        first[1:] = ~same
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, empty.size))
        self.twins: Dict[int, List[int]] = {}
        for start, size in zip(starts.tolist(), sizes.tolist()):
            if size > 1:
                members = by_class[start : start + size].tolist()
                self.twins[members[0]] = members
        hidden = np.zeros(arrays.num_pms, dtype=bool)
        hidden[by_class[np.repeat(sizes > 1, sizes) & ~first]] = True
        # Every other host, grouped by power model (ids ascending within
        # a group): one power_batch per group scores a block of columns.
        base = np.flatnonzero(~hidden)
        self.base = base[np.argsort(self.group_of[base], kind="stable")]
        # Python copies of the per-host operands that re-score a host
        # holding commitments of the call.
        self._ram_free = self.ram_free.tolist()
        self._pm_demand = self.pm_demand.tolist()
        self._pm_mips = self.pm_mips.tolist()
        self._wake = self.wake.tolist()
        models = [model for model, _ in self.groups]
        self._model = [models[group] for group in self.group_of.tolist()]
        # Primed scores: the feasible (VM, base host) pairs, row-major.
        self.threshold: Optional[float] = None
        self._budget: List[float] = []
        self._rows: Dict[int, Tuple[float, float, int, int, int]] = {}
        self._pair_hosts = np.empty(0, dtype=np.int64)
        self._pair_scores = np.empty(0, dtype=np.float64)

    def prime(self, vm_ids: Iterable[int], threshold: float) -> None:
        """Score every base host for each of ``vm_ids`` at zero pending.

        Only the feasible pairs are scored and kept: a host lacking the
        RAM, passing ``threshold`` of its capacity, or the VM's source
        has no score.  Replaces any earlier priming.
        """
        arrays = self.arrays
        vm_ids = np.asarray(list(vm_ids), dtype=np.int64)
        mips = arrays.vm_demand[vm_ids] * arrays.vm_mips[vm_ids]
        ram = arrays.vm_ram_mb[vm_ids]
        budget = threshold * self.pm_mips
        base = self.base
        if vm_ids.size:
            # A host that lacks room for the least RAM and MIPS of the
            # set fits none of its VMs.
            base = base[
                (ram.min() <= self.ram_free[base])
                & (self.pm_demand[base] + mips.min() <= budget[base])
            ]
        sources = arrays.host_of[vm_ids]
        feasible = (
            (ram[:, None] <= self.ram_free[base])
            & (self.pm_demand[base] + mips[:, None] <= budget[base])
            & (base != sources[:, None])
        )
        scores = np.empty(feasible.shape, dtype=np.float64)
        edges = np.searchsorted(
            self.group_of[base], np.arange(len(self.groups) + 1, dtype=np.int64)
        ).tolist()
        for (model, _), lo, hi in zip(self.groups, edges, edges[1:]):
            hosts = base[lo:hi]
            load = self.pm_demand[hosts] + mips[:, None]
            after = np.minimum(1.0, load / self.pm_mips[hosts])
            scores[:, lo:hi] = (
                model.power_batch(after) - self.before[hosts]
            ) + self.wake[hosts]
        rows, cols = np.nonzero(feasible)
        self._pair_hosts = base[cols]
        self._pair_scores = scores[feasible]
        bounds = np.searchsorted(rows, np.arange(vm_ids.size + 1, dtype=np.int64)).tolist()
        self.threshold = threshold
        self._budget = budget.tolist()
        self._rows = dict(
            zip(
                vm_ids.tolist(),
                zip(
                    mips.tolist(),
                    ram.tolist(),
                    sources.tolist(),
                    bounds[:-1],
                    bounds[1:],
                ),
            )
        )

    def rows(
        self, vm_ids: Sequence[int], threshold: float
    ) -> List[Tuple[float, float, int, int, int]]:
        """``(mips, ram, source, start, stop)`` of each of ``vm_ids``,
        priming them first when needed; ``start:stop`` spans the VM's
        primed pairs."""
        rows = self._rows
        if threshold != self.threshold or not all(
            map(rows.__contains__, vm_ids)
        ):
            self.prime(vm_ids, threshold)
            rows = self._rows
        return [rows[vm_id] for vm_id in vm_ids]

    def best_primed(
        self,
        start: int,
        stop: int,
        excluded: bytes,
        committed: Dict[int, List[float]],
    ) -> Tuple[float, int]:
        """The minimum ``(score, host id)`` of primed pairs ``start:stop``
        over hosts neither ``excluded`` (one byte per host, non-zero
        when excluded) nor ``committed``; ``(inf, -1)`` when there is
        none.

        One pass over the row; a key scoring no more than the best so
        far resolves to its first free host — itself, or a twin class's
        first free member — and ties go to the lower resolved id.
        """
        best_score, best_host = math.inf, -1
        twins = self.twins
        for score, key in zip(
            self._pair_scores[start:stop].tolist(),
            self._pair_hosts[start:stop].tolist(),
        ):
            if score > best_score:
                continue
            if key in twins:
                for host in twins[key]:
                    if not excluded[host] and host not in committed:
                        break
                else:
                    continue
            elif excluded[key] or key in committed:
                continue
            else:
                host = key
            if score < best_score or host < best_host:
                best_score, best_host = score, host
        return best_score, best_host


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
    # Bytes index as Python ints: the walk tests one host at a time.
    excluded = _excluded_mask(excluded_hosts, datacenter.num_pms).tobytes()
    vm_ids = list(vm_ids)
    if context is None:
        context = PlacementContext(datacenter)
    rows = context.rows(vm_ids, threshold)
    budget, pm_mips = context._budget, context._pm_mips
    model_of, wake = context._model, context._wake
    plan: Dict[int, int] = {}
    # Each VM's primed pairs hold its zero-pending score on every
    # feasible host, with the same operands as the historical per-PM
    # scan (kept as the test oracle ``tests/oracles/pabfd.py``) — load
    # ``(demand + pending) + vm_demand``, room ``free − pending``,
    # increase ``(P(after) − P(before)) + wake``.  Within the call only
    # excluded hosts and hosts this call has committed VMs to differ
    # from the primed scores: the first are skipped, the second
    # re-scored below with their pending load.  Pending load only adds,
    # so a host infeasible at zero pending (or the VM's source) stays
    # infeasible.  The minimum by ``(score, host id)`` is the scan's
    # strict ``<`` in ascending id order, so the plan is bit-identical
    # to the scan's.
    # Per committed host: [pending MIPS, pending RAM, load, room, P(load)].
    committed: Dict[int, List[float]] = {}
    demand = [-row[0] for row in rows]
    for index in sorted(range(len(rows)), key=demand.__getitem__):
        mips, ram, source, start, stop = rows[index]
        best_score, best_host = context.best_primed(
            start, stop, excluded, committed
        )
        for pm_id, (_, _, load, room, before) in committed.items():
            if pm_id == source or ram > room or load + mips > budget[pm_id]:
                continue
            after = min(1.0, (load + mips) / pm_mips[pm_id])
            score = (model_of[pm_id].power(after) - before) + wake[pm_id]
            if score < best_score or (
                score == best_score and pm_id < best_host
            ):
                best_score, best_host = score, pm_id
        if best_host < 0:
            continue
        plan[vm_ids[index]] = best_host
        pending = committed.setdefault(best_host, [0.0, 0.0, 0.0, 0.0, 0.0])
        pending[0] += mips
        pending[1] += ram
        # Recompute (not ``+=``) the load and room so they equal the
        # scan's ``demand + pending`` and ``free − pending`` exactly.
        pending[2] = context._pm_demand[best_host] + pending[0]
        pending[3] = context._ram_free[best_host] - pending[1]
        pending[4] = model_of[best_host].power(
            min(1.0, pending[2] / pm_mips[best_host])
        )
    return plan


def hosts_by_utilization(datacenter: Datacenter) -> np.ndarray:
    """Active host ids ordered by demanded utilization, least loaded
    first.

    One masked stable argsort — ties keep ascending host-id order, the
    same as the historical stable ``sorted`` over ``active_pm_ids()``.
    """
    arrays = datacenter.arrays
    active = np.flatnonzero(arrays.active_pm_mask())
    util = arrays.pm_demand_utilization()
    return active[np.argsort(util[active], kind="stable")]


class CompiledPlacement:
    """MMT's whole placement pass in one call of the kernel library's
    ``megh_plan_mmt`` (the relief PABFD call, then one per consolidation
    host), migration for migration the :func:`power_aware_best_fit`
    path's.  Binds to a fleet on first use; :meth:`plan` returns
    ``None`` when a host's power model is neither
    :class:`SpecPowerModel` nor :class:`LinearPowerModel`.
    """

    def __init__(self, kernel: "kern.CKernel") -> None:
        self.kernel = kernel
        self._arrays: object = None
        self._supported = False
        self._mmt_args = np.zeros(kern.M_SLOTS, dtype=np.int64)
        self._mmt_args_ptr = self._mmt_args.ctypes.data

    def _bind(self, datacenter: Datacenter) -> None:
        """Size the buffers for this fleet and write its static part."""
        arrays = self._arrays = datacenter.arrays
        groups = datacenter.power_groups()
        rows: List[List[float]] = []  # megh_plan_mmt's row of each model
        for model, _ in groups:
            if type(model) is SpecPowerModel:
                rows.append([0.0, *model.watts])
            elif type(model) is LinearPowerModel:
                rows.append([1.0, model.idle_watts, model.peak_watts] + [0.0] * 9)
        self._supported = len(rows) == len(groups)
        if not self._supported:
            return
        num_vms, num_pms = arrays.num_vms, arrays.num_pms
        args = self._mmt_args
        ints = ((kern.M_MODEL_OF, num_pms), (kern.M_BOUNDS, num_pms + 1),
                (kern.M_BY_HOST, num_vms), (kern.M_RELIEF, num_vms),
                (kern.M_HOSTS, num_pms), (kern.M_ORDER, num_vms),
                (kern.M_TOUCHED, num_vms))
        doubles = ((kern.M_PM_MIPS, num_pms), (kern.M_RAM_FREE, num_pms),
                   (kern.M_PM_DEMAND, num_pms), (kern.M_WAKE, num_pms),
                   (kern.M_BEFORE, num_pms), (kern.M_PEND_MIPS, num_pms),
                   (kern.M_PEND_RAM, num_pms), (kern.M_MODELS, 12 * len(rows)))
        flags = ((kern.M_EXCLUDED, num_pms), (kern.M_ASLEEP, num_pms),
                 (kern.M_EVACUATED, num_pms))
        self._mmt_ints = np.zeros(sum(n for _, n in ints), dtype=np.int64)
        self._mmt_doubles = np.zeros(sum(n for _, n in doubles), dtype=np.float64)
        self._mmt_flags = np.zeros(sum(n for _, n in flags), dtype=np.uint8)
        self._mmt_out = np.zeros(2 * num_vms, dtype=np.int64)
        (
            model_of, self._bounds, self._by_host, self._relief, self._hosts,
            *_,
        ) = kern.carve(args, self._mmt_ints, self._mmt_ints.ctypes.data, ints)
        pm_mips, self._ram_free, self._pm_demand, *_, models = kern.carve(
            args, self._mmt_doubles, self._mmt_doubles.ctypes.data, doubles
        )
        self._excluded, self._asleep, _ = kern.carve(
            args, self._mmt_flags, self._mmt_flags.ctypes.data, flags
        )
        for index, (_, pm_ids) in enumerate(groups):
            model_of[pm_ids] = index
        pm_mips[:] = arrays.pm_mips
        models[:] = [w for row in rows for w in row]
        args[kern.M_NUM_VMS] = num_vms
        args[kern.M_NUM_PMS] = num_pms
        args[kern.M_HOST_OF] = arrays.host_of.ctypes.data
        args[kern.M_VM_RAM] = arrays.vm_ram_mb.ctypes.data
        args[kern.M_VM_DEMAND] = arrays.vm_demand.ctypes.data
        args[kern.M_VM_MIPS] = arrays.vm_mips.ctypes.data
        args[kern.M_OUT] = self._mmt_out.ctypes.data

    def plan(
        self,
        datacenter: Datacenter,
        relief: Sequence[int],
        overloaded_hosts: Sequence[int],
        candidates: Tuple[np.ndarray, np.ndarray, np.ndarray],
        threshold: float,
    ) -> Optional[List[int]]:
        """The step's migrations as a flat ``[vm, dest, vm, dest, ...]``
        list (``None`` for a fleet the kernel cannot score); the inputs
        are as ``MMTScheduler`` computes them."""
        arrays = datacenter.arrays
        if arrays is not self._arrays:
            self._bind(datacenter)
        if not self._supported:
            return None
        hosts, by_host, bounds = candidates
        self._ram_free[:] = arrays.pm_ram_free_mb()
        self._pm_demand[:] = arrays.pm_demand_mips()
        self._excluded[:] = 0
        self._excluded[overloaded_hosts] = 1
        self._asleep[:] = arrays.pm_asleep
        self._bounds[:] = bounds
        self._by_host[: by_host.shape[0]] = by_host
        self._relief[: len(relief)] = relief
        self._hosts[: hosts.shape[0]] = hosts
        self._mmt_args[kern.M_N_RELIEF] = len(relief)
        self._mmt_args[kern.M_N_HOSTS] = hosts.shape[0]
        count = self.kernel.plan_mmt(self._mmt_args_ptr, threshold)
        if count < 0:
            raise RuntimeError("megh_plan_mmt: step inputs out of their bounds")
        return self._mmt_out[: 2 * count].tolist()
