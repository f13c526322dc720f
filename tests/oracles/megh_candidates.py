"""The scalar Megh candidate generator: the oracle of ``CandidateIndex``.

The historical per-entity loops of ``MeghScheduler`` that formed each
step's candidate actions.  ``CandidateIndex`` must produce the same
ordered lists element for element, and ``decide()`` routed through
``agent._plan = functools.partial(scalar_plan, agent)`` the same traces.
Each function takes the agent whose thresholds and config it applies.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.candidates import CandidatePlan
from repro.mdp.action import MigrationAction


def scalar_plan(agent, observation) -> CandidatePlan:
    """The scalar generator's lists wrapped in a plan."""
    return plan_from_lists(
        observation.datacenter, candidate_actions(agent, observation)
    )


def candidate_actions(agent, observation) -> List[List[MigrationAction]]:
    """Per-VM candidate lists: the no-op plus feasible destinations.

    Overloaded-host VMs come first (mandatory relief), then VMs on
    underloaded hosts, easiest-to-empty hosts first.
    """
    datacenter = observation.datacenter
    source_vms: List[int] = []
    overloaded_ids = datacenter.overloaded_pm_ids(agent.beta)
    for pm_id in overloaded_ids:
        source_vms.extend(
            vm_id
            for vm_id in sorted(datacenter.vms_on(pm_id))
            if datacenter.vm(vm_id).is_active
        )
    if agent.config.consolidate_underloaded:
        underloaded = [
            pm_id
            for pm_id in datacenter.active_pm_ids()
            if 0.0
            < datacenter.demanded_utilization(pm_id)
            <= agent.config.underload_threshold
        ]
        underloaded.sort(key=lambda pm_id: len(datacenter.vms_on(pm_id)))
        for pm_id in underloaded:
            source_vms.extend(
                vm_id
                for vm_id in sorted(datacenter.vms_on(pm_id))
                if datacenter.vm(vm_id).is_active
            )
    cap = agent.config.max_candidate_vms
    if cap:
        source_vms = source_vms[:cap]
    overloaded_now = set(overloaded_ids)
    per_vm: List[List[MigrationAction]] = []
    seen = set()
    for vm_id in source_vms:
        if vm_id in seen:
            continue
        seen.add(vm_id)
        current = datacenter.host_of(vm_id)
        if current is None:
            continue
        destinations = destinations_for(
            agent, observation, vm_id, current, current in overloaded_now
        )
        actions = [
            MigrationAction(vm_id=vm_id, dest_pm_id=pm_id)
            for pm_id in destinations
        ]
        # Relief off an overloaded host with somewhere to go is
        # mandatory: no stay-put action there.
        if current not in overloaded_now or not actions:
            actions.insert(0, MigrationAction(vm_id=vm_id, dest_pm_id=current))
        per_vm.append(actions)
    return per_vm


def destinations_for(
    agent,
    observation,
    vm_id: int,
    current: int,
    relief: bool = False,
) -> Sequence[int]:
    """Feasible destinations: RAM fits and no new overload is created.

    Consolidation keeps ``destination_headroom`` below beta; relief
    falls back to the full beta budget.  A ``candidate_destinations``
    cap keeps the most-utilized hosts.
    """
    datacenter = observation.datacenter
    headroom = agent.config.destination_headroom
    feasible = feasible_destinations(
        agent, datacenter, vm_id, current, headroom, allow_empty_hosts=relief
    )
    if relief and not feasible:
        feasible = feasible_destinations(
            agent, datacenter, vm_id, current, 1.0, allow_empty_hosts=True
        )
    limit = agent.config.candidate_destinations
    if limit and len(feasible) > limit:
        feasible.sort(key=lambda pm_id: -datacenter.demanded_utilization(pm_id))
        feasible = feasible[:limit]
    return feasible


def feasible_destinations(
    agent,
    datacenter,
    vm_id: int,
    current: int,
    headroom: float,
    allow_empty_hosts: bool,
) -> List[int]:
    vm = datacenter.vm(vm_id)
    feasible: List[int] = []
    for pm in datacenter.pms:
        if pm.pm_id == current:
            continue
        # Consolidation only packs onto hosts already serving VMs.
        if not allow_empty_hosts and not datacenter.vms_on(pm.pm_id):
            continue
        if not datacenter.fits(vm_id, pm.pm_id):
            continue
        new_demand = datacenter.demanded_mips(pm.pm_id) + vm.demanded_mips
        if new_demand > headroom * agent.beta * pm.mips:
            continue
        feasible.append(pm.pm_id)
    return feasible


def plan_from_lists(
    datacenter,
    candidates: Sequence[Sequence[MigrationAction]],
) -> CandidatePlan:
    """Wrap candidate lists in a plan.

    A row is mandatory exactly when its first action is a real move:
    every consolidation row leads with the stay-put no-op, and on a
    single-no-op relief row the flag is inert.
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
        np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
    )
    action_indices = np.repeat(vm_ids, np.diff(offsets)) * num_pms + dest_pm
    return CandidatePlan(
        vm_ids=vm_ids,
        sources=sources,
        mandatory=mandatory,
        dest_pm=dest_pm,
        offsets=offsets,
        action_indices=action_indices,
        num_pms=num_pms,
    )
