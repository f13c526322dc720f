"""The Megh scheduler (Algorithm 1 wired into the simulator).

Per observation interval the agent:

1. forms the candidate action set for the new state — for every VM on an
   overloaded host (mandatory relief) and, optionally, on an underloaded
   host (consolidation), all feasible ``(vm, destination)`` pairs plus the
   self-migration no-op;
2. completes the previous step's Algorithm-1 iteration: using the cost the
   simulator charged for that step (Eq. 6) and the action the current
   policy would take in the new state, applies the Sherman–Morrison update
   (Eq. 11) and the ``z``/``theta`` updates for each action executed last
   step;
3. selects this step's actions with the Boltzmann policy calculator
   (Algorithm 2) over ``Q(s, a) = theta[a]``, honouring the per-step cap
   of ``max_migration_fraction x N`` migrations;
4. decays the temperature.

Every piece of per-step work is proportional to the candidate set and to
the non-zeros touched in ``B`` — never to the full ``d = N x M`` space.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloudsim.migration import Migration
from repro.config import MeghConfig
from repro.core.basis import SparseBasis
from repro.core.candidates import CandidateIndex, CandidatePlan
from repro.core.contracts import (
    ContractConfig,
    ShermanMorrisonAuditor,
    contracts_enabled,
    require_finite,
)
from repro.core.exploration import BoltzmannPolicy
from repro.core.lstd import SparseLstd
from repro.core.qtable import QTableTracker
from repro.errors import ConfigurationError
from repro.mdp.action import ActionSpace, MigrationAction
from repro.mdp.interfaces import Observation


class MeghScheduler:
    """Online RL live-migration scheduler (the paper's contribution).

    Args:
        num_vms: N.
        num_pms: M.
        config: hyper-parameters (Algorithm 1 and 2 defaults).
        beta: host overload threshold used to pick mandatory candidates;
            should match the simulator's SLA threshold.
        seed: RNG seed for exploration.
        policy: exploration policy override (defaults to the paper's
            Boltzmann calculator; inject
            :class:`~repro.core.exploration.EpsilonGreedyPolicy` for the
            ablation).
        contracts: runtime numerical-contract configuration (see
            :mod:`repro.core.contracts`).  ``None`` consults
            :func:`~repro.core.contracts.contracts_enabled` — on in the
            test suite, off in benchmarks; pass ``False`` to force off.
    """

    name = "Megh"

    def __init__(
        self,
        num_vms: int,
        num_pms: int,
        config: Optional[MeghConfig] = None,
        beta: float = 0.70,
        seed: int = 0,
        policy=None,
        bandwidth_beta: Optional[float] = None,
        trace=None,
        contracts=None,
        dynamic_slots: bool = False,
    ) -> None:
        if not 0 < beta <= 1:
            raise ConfigurationError("beta must be in (0, 1]")
        if bandwidth_beta is not None and not 0 < bandwidth_beta <= 1:
            raise ConfigurationError("bandwidth beta must be in (0, 1]")
        self.config = config or MeghConfig()
        self.beta = beta
        self.bandwidth_beta = bandwidth_beta
        self.action_space = ActionSpace(num_vms=num_vms, num_pms=num_pms)
        self.basis = SparseBasis(self.action_space)
        #: Array-native candidate pipeline (see repro.core.candidates).
        self.candidate_index = CandidateIndex(
            beta=beta, bandwidth_beta=bandwidth_beta, config=self.config
        )
        self.lstd = SparseLstd(
            dimension=self.action_space.dimension,
            gamma=self.config.gamma,
            delta=self.config.delta,
        )
        #: Service mode: VM slots are reused across arrivals/departures,
        #: so the learner tracks its forward operator for retirement.
        self.dynamic_slots = dynamic_slots
        if dynamic_slots:
            self.lstd.enable_operator_tracking()
        self.policy = policy or BoltzmannPolicy(
            initial_temperature=self.config.initial_temperature,
            decay=self.config.temperature_decay,
            min_temperature=self.config.min_temperature,
            seed=seed,
        )
        self.qtable = QTableTracker()
        self._rng = np.random.default_rng(seed + 1)
        self._previous_action_indices: List[int] = []
        self._steps_seen = 0
        self._cost_running_mean = 0.0
        self._costs_seen = 0
        #: Optional DecisionTrace collecting per-step records.
        self.trace = trace
        self._last_normalized_cost: Optional[float] = None
        if contracts is None:
            contracts = ContractConfig() if contracts_enabled() else False
        #: Runtime numerical-contract auditor (None when contracts off).
        self.auditor = (
            ShermanMorrisonAuditor(self.lstd, contracts)
            if isinstance(contracts, ContractConfig)
            else None
        )

    @classmethod
    def from_simulation(
        cls,
        simulation,
        config: Optional[MeghConfig] = None,
        seed: int = 0,
        contracts=None,
    ) -> "MeghScheduler":
        """Build an agent sized and thresholded to match a simulation."""
        dc_config = simulation.config.datacenter
        return cls(
            num_vms=simulation.datacenter.num_vms,
            num_pms=simulation.datacenter.num_pms,
            config=config,
            beta=dc_config.overload_threshold,
            seed=seed,
            contracts=contracts,
            bandwidth_beta=(
                dc_config.bandwidth_overload_threshold
                if dc_config.bandwidth_aware
                else None
            ),
            dynamic_slots=getattr(simulation, "dynamic_slots", False),
        )

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def decide(self, observation: Observation) -> List[Migration]:
        plan = self._plan(observation)
        self._learn_from_last_step(observation, plan.action_indices)
        moves, noops = self._select_from_plan(plan)
        # Record the executed migrations plus a bounded sample of no-ops,
        # keeping the number of LSTD updates per step O(#migrations) —
        # the Section 5.2 complexity claim.
        noop_budget = max(1, len(moves))
        if len(noops) > noop_budget:
            picked = self._rng.choice(
                len(noops), size=noop_budget, replace=False
            )
            noops = [noops[int(i)] for i in picked]
        self._previous_action_indices = [
            entry[3] for entry in moves
        ] + [entry[3] for entry in noops]
        if self.trace is not None:
            from repro.core.trace import DecisionRecord

            self.trace.append(
                DecisionRecord(
                    step=observation.step,
                    temperature=self.policy.temperature,
                    normalized_cost=self._last_normalized_cost,
                    num_candidate_vms=plan.num_rows,
                    num_candidate_actions=plan.num_actions,
                    chosen=tuple(
                        (vm_id, dest) for vm_id, dest, _, _ in moves
                    ),
                    # Raw (margin-free) Q, reused from selection — B and
                    # z have not changed since, so recomputing would be
                    # the same value at twice the cost.
                    chosen_q=tuple(raw for _, _, raw, _ in moves),
                    q_table_nonzeros=self.lstd.q_table_nonzeros,
                )
            )
        self.policy.step()
        self._steps_seen += 1
        self.qtable.record(self._steps_seen, self.lstd.q_table_nonzeros)
        return [
            Migration(vm_id=vm_id, dest_pm_id=dest)
            for vm_id, dest, _, _ in moves
        ]

    def retire_vm(self, vm_slot: int) -> None:
        """Forget everything learned about a departed VM's slot.

        Clears the slot's block of ``M`` action indices from ``B`` and
        ``z`` (see :meth:`~repro.core.lstd.SparseLstd.retire_actions`)
        so a new arrival reusing the slot starts from the never-observed
        state.  Pending Algorithm-1 updates for the retired indices are
        dropped — the VM no longer exists, so there is no next state to
        bootstrap from.  Requires ``dynamic_slots=True``.
        """
        if not 0 <= vm_slot < self.action_space.num_vms:
            raise ConfigurationError(
                f"vm_slot {vm_slot} out of range "
                f"[0, {self.action_space.num_vms})"
            )
        num_pms = self.action_space.num_pms
        indices = range(vm_slot * num_pms, (vm_slot + 1) * num_pms)
        retired = set(indices)
        self._previous_action_indices = [
            index
            for index in self._previous_action_indices
            if index not in retired
        ]
        self.lstd.retire_actions(indices)
        if self.auditor is not None:
            self.auditor.after_retirement(indices)

    # ------------------------------------------------------------------
    # Candidate generation ("which VM" and "where")
    # ------------------------------------------------------------------
    def _plan(self, observation: Observation) -> CandidatePlan:
        """This step's candidate plan.

        The vectorized :class:`~repro.core.candidates.CandidateIndex`
        reads the struct-of-arrays store; datacenters without one (the
        reference object-model datacenter) take the scalar generator.
        Tests and ``bench_core_decide --check-oracle`` force the scalar
        path on an SoA fleet by shadowing this method with
        :meth:`_scalar_plan` on the instance.
        """
        if getattr(observation.datacenter, "arrays", None) is None:
            return self._scalar_plan(observation)
        return self.candidate_index.plan(observation.datacenter)

    def _scalar_plan(self, observation: Observation) -> CandidatePlan:
        """The scalar generator's lists wrapped in a plan."""
        return self.candidate_index.plan_from_lists(
            observation.datacenter, self._candidate_actions(observation)
        )

    def _candidate_actions(
        self, observation: Observation
    ) -> List[List[MigrationAction]]:
        """Per-VM candidate lists: the no-op plus feasible destinations.

        Overloaded-host VMs come first (mandatory relief), then VMs on
        underloaded hosts ordered so the easiest-to-empty hosts are
        considered first.  The ``max_candidate_vms`` cap bounds per-step
        work without changing what is learnable: the (vm, destination)
        Q-values persist across steps.

        Retained as the differential oracle for the vectorized
        :class:`~repro.core.candidates.CandidateIndex` — the per-entity
        loops here are the *specification* the broadcast path must match
        element for element, so they stay scalar on purpose.
        """
        datacenter = observation.datacenter
        source_vms: List[int] = []
        # The overload predicate is evaluated exactly once per decide —
        # both for source ordering and for the mandatory/relief test
        # below (nothing mutates the datacenter in between).
        overloaded_ids = datacenter.overloaded_pm_ids(
            self.beta, self.bandwidth_beta
        )
        for pm_id in overloaded_ids:
            source_vms.extend(
                vm_id
                for vm_id in sorted(datacenter.vms_on(pm_id))
                if datacenter.vm(vm_id).is_active
            )
        if self.config.consolidate_underloaded:
            underloaded = [
                pm_id
                for pm_id in datacenter.active_pm_ids()
                if 0.0
                < datacenter.demanded_utilization(pm_id)
                <= self.config.underload_threshold
            ]
            underloaded.sort(key=lambda pm_id: len(datacenter.vms_on(pm_id)))
            for pm_id in underloaded:
                source_vms.extend(
                    vm_id
                    for vm_id in sorted(datacenter.vms_on(pm_id))
                    if datacenter.vm(vm_id).is_active
                )
        cap = self.config.max_candidate_vms
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
            destinations = self._destinations_for(
                observation,
                vm_id,
                current,
                relief=current in overloaded_now,
            )
            actions = [
                MigrationAction(vm_id=vm_id, dest_pm_id=pm_id)
                for pm_id in destinations
            ]
            # The stay-put action competes for consolidation sources, but
            # not on an overloaded host with feasible destinations —
            # overload relief is mandatory (the cap still bounds how many
            # relief moves execute per step).
            if current not in overloaded_now or not actions:
                actions.insert(
                    0, MigrationAction(vm_id=vm_id, dest_pm_id=current)
                )
            per_vm.append(actions)
        return per_vm

    def _destinations_for(
        self,
        observation: Observation,
        vm_id: int,
        current: int,
        relief: bool = False,
    ) -> Sequence[int]:
        """Feasible destinations: RAM fits and no new overload is created.

        Consolidation proposals leave headroom below beta so demand noise
        after the move does not immediately tip the destination into
        overload; relief moves off an overloaded host may use the full
        beta budget (getting the VM out is the priority).

        When ``candidate_destinations`` bounds the proposal size, the
        most-utilized feasible hosts are proposed first: packing proposals
        are the ones worth scoring, and the learned Q (plus the no-op)
        still decides whether any of them is taken.
        """
        datacenter = observation.datacenter
        feasible = self._feasible_destinations(
            datacenter, vm_id, current, self.config.destination_headroom,
            allow_empty_hosts=relief,
        )
        if relief and not feasible:
            # No destination passes the safety headroom: getting the VM
            # off the overloaded host still beats leaving it, so fall
            # back to the full beta budget.
            feasible = self._feasible_destinations(
                datacenter, vm_id, current, 1.0, allow_empty_hosts=True
            )
        limit = self.config.candidate_destinations
        if limit and len(feasible) > limit:
            feasible.sort(
                key=lambda pm_id: -datacenter.demanded_utilization(pm_id)
            )
            feasible = feasible[:limit]
        return feasible

    def _feasible_destinations(
        self,
        datacenter,
        vm_id: int,
        current: int,
        headroom: float,
        allow_empty_hosts: bool,
    ) -> List[int]:
        vm = datacenter.vm(vm_id)
        feasible: List[int] = []
        for pm in datacenter.pms:  # meghlint: ignore[MEGH009] -- scalar differential oracle: this loop IS the spec the vectorized CandidateIndex is checked against
            if pm.pm_id == current:
                continue
            # Consolidation only packs onto hosts that already serve VMs;
            # moving a VM from one underloaded host to an empty one can
            # never reduce the active-host count.  Relief may wake hosts.
            if not allow_empty_hosts and not datacenter.vms_on(pm.pm_id):
                continue
            if not datacenter.fits(vm_id, pm.pm_id):
                continue
            new_demand = (
                datacenter.demanded_mips(pm.pm_id) + vm.demanded_mips
            )
            if new_demand > headroom * self.beta * pm.mips:
                continue
            if self.bandwidth_beta is not None:
                new_traffic = (
                    datacenter.bandwidth_demanded_mbps(pm.pm_id)
                    + vm.demanded_bandwidth_mbps
                )
                budget = (
                    headroom * self.bandwidth_beta * pm.bandwidth_mbps
                )
                if new_traffic > budget:
                    continue
            feasible.append(pm.pm_id)
        return feasible

    # ------------------------------------------------------------------
    # Learning (Algorithm 1 lines 8-12)
    # ------------------------------------------------------------------
    def _learn_from_last_step(
        self,
        observation: Observation,
        action_indices: np.ndarray,
    ) -> None:
        """Complete last step's Algorithm-1 iteration.

        ``action_indices`` is the current plan's flat candidate array
        (``vm_id * M + dest_pm_id``), fed straight to the batched Q
        evaluation — no per-action object traffic.
        """
        if not self._previous_action_indices:
            return
        cost = self._normalize_cost(observation.last_step_cost_usd)
        if self.auditor is not None:
            require_finite("normalized step cost", cost)
        next_index = self._greedy_candidate_index(action_indices)
        for action_index in self._previous_action_indices:
            target = next_index if next_index is not None else action_index
            # Each action "in effect" last step receives the full step
            # cost, the multi-action extension of Algorithm 1's line 10.
            self.lstd.update(action_index, target, cost)
            if self.auditor is not None:
                self.auditor.after_update(action_index, target)

    def _normalize_cost(self, cost_usd: float) -> float:
        """Scale the raw USD step cost into Boltzmann-comparable units.

        With ``cost_scale=None`` the cost is divided by its running mean,
        so Q differences are O(1) regardless of fleet size or electricity
        price; ``baseline_subtraction`` additionally centres the signal,
        so actions followed by below-average cost earn negative credit.
        """
        self._costs_seen += 1
        self._cost_running_mean += (
            cost_usd - self._cost_running_mean
        ) / self._costs_seen
        if self.config.cost_scale is not None:
            scale = self.config.cost_scale
        else:
            scale = max(abs(self._cost_running_mean), 1e-12)
        cost = cost_usd
        if self.config.baseline_subtraction:
            cost -= self._cost_running_mean
        normalized = cost / scale
        self._last_normalized_cost = normalized
        return normalized

    def _greedy_candidate_index(
        self, action_indices: np.ndarray
    ) -> Optional[int]:
        """``phi_{pi_t(s_{t+1})}``: the current policy's pick in the new state."""
        if action_indices.shape[0] == 0:
            return None
        q_batch = self.lstd.q_values(action_indices)
        # np.argmin keeps the first minimiser, matching the historical
        # strict `<` scan.
        return int(action_indices[int(np.argmin(q_batch))])

    # ------------------------------------------------------------------
    # Action selection ("when")
    # ------------------------------------------------------------------
    def _select_from_plan(
        self, plan: CandidatePlan
    ) -> Tuple[List[tuple], List[tuple]]:
        """Pick one action per candidate VM straight off the plan arrays.

        Returns ``(moves, noops)``, each a list of
        ``(vm_id, dest_pm_id, raw_q, flat_index)`` tuples — ``raw_q`` is
        the margin-free ``Q(s, a)`` of the selected action, handed back
        so ``decide()``'s trace branch can reuse it instead of
        recomputing the same dot products, and ``flat_index`` the
        already-fused basis coordinate for the learner.  Moves are
        capped at the migration budget with relief moves first.
        """
        # One batched Q evaluation for the whole candidate set; per-VM
        # slices below are views into this cache-backed array.
        flat_q = self.lstd.q_values(plan.action_indices)
        offsets = plan.offsets
        dest_pm = plan.dest_pm
        picks: List[tuple] = []
        for r in range(plan.num_rows):
            start = int(offsets[r])
            end = int(offsets[r + 1])
            raw_q = flat_q[start:end]
            dests = dest_pm[start:end]
            source = int(plan.sources[r])
            mandatory = bool(plan.mandatory[r])
            # Soft switching cost: consolidation moves must beat the
            # stay-put Q by the hysteresis margin.  At high
            # temperature the margin is negligible (exploration is
            # unharmed); once the temperature decays it suppresses
            # ping-pong between equally good homes.  Relief moves off
            # overloaded hosts are exempt.
            if mandatory:
                q_values = raw_q.copy()
            else:
                q_values = raw_q + self.config.migration_margin * (
                    dests != source
                )
            _, index = self.policy.select(dests, q_values)
            picks.append(
                (
                    float(q_values[index]),
                    int(plan.vm_ids[r]),
                    int(dests[index]),
                    float(raw_q[index]),
                    int(plan.action_indices[start + index]),
                    mandatory,
                    source,
                )
            )
        max_moves = max(
            1, int(self.config.max_migration_fraction * self.action_space.num_vms)
        )
        # Keep every no-op (they cost nothing to execute) but cap real
        # moves at the 2 % budget.  Within the budget, moves that relieve
        # an overloaded host come first (they are why "when to migrate"
        # matters); remaining slots go to the best-Q consolidation moves.
        noops = [
            (vm_id, dest, raw, flat)
            for _, vm_id, dest, raw, flat, _, source in picks
            if dest == source
        ]
        ranked = sorted(
            (
                (not mandatory, q, vm_id, dest, raw, flat)
                for q, vm_id, dest, raw, flat, mandatory, source in picks
                if dest != source
            ),
            key=lambda entry: (entry[0], entry[1]),
        )
        moves = [
            (vm_id, dest, raw, flat)
            for _, _, vm_id, dest, raw, flat in ranked[:max_moves]
        ]
        return moves, noops

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def q_table_nonzeros(self) -> int:
        """Current Q-table size (Figure 7 quantity)."""
        return self.lstd.q_table_nonzeros

    @property
    def temperature(self) -> float:
        """Current Boltzmann temperature."""
        return self.policy.temperature

    def preferred_hosts(self, vm_id: int, top_k: int = 3):
        """The VM's learned host preferences: ``[(pm_id, Q), ...]``.

        Lower Q = cheaper expected future cost; hosts the agent has never
        evaluated for this VM carry Q = 0.  A read-only window into what
        the Q-table has learned, for debugging and the inspection
        example.
        """
        if not 0 <= vm_id < self.action_space.num_vms:
            raise ConfigurationError(
                f"vm_id {vm_id} out of range "
                f"[0, {self.action_space.num_vms})"
            )
        if top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        actions = list(self.action_space.actions_for_vm(vm_id))
        q_batch = self.lstd.q_values(
            [self.basis.index_of(action) for action in actions]
        )
        scored = [
            (action.dest_pm_id, float(q))
            for action, q in zip(actions, q_batch)
        ]
        scored.sort(key=lambda pair: pair[1])
        return scored[:top_k]
