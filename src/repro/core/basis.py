"""Sparse one-hot basis of Megh's projection space (Theorem 1).

Megh projects the combinatorial state-action space onto ``X``, spanned by
``d = N x M`` basis vectors ``phi_jk`` — one per migration action (VM j to
PM k), with a single 1 at index ``j * M + k``.  Because every basis vector
is one-hot, all of Megh's linear algebra reduces to index arithmetic: the
approximated cost-to-go is ``V(s) = theta^T phi_pi(s) = theta[index]``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.mdp.action import ActionSpace, MigrationAction


class SparseBasis:
    """The family ``{phi_jk}`` as index arithmetic over an action space."""

    def __init__(self, action_space: ActionSpace) -> None:
        self.action_space = action_space

    @property
    def dimension(self) -> int:
        return self.action_space.dimension

    def index_of(self, action: MigrationAction) -> int:
        """Position of the single non-zero entry of ``phi_action``."""
        return self.action_space.index(action)

    def vector(self, action: MigrationAction) -> Dict[int, float]:
        """``phi_action`` as a sparse one-hot dict."""
        return {self.index_of(action): 1.0}

    def combination(
        self, action: MigrationAction, next_action: MigrationAction, gamma: float
    ) -> Dict[int, float]:
        """``phi_a - gamma * phi_a'`` — the right factor of Eq. (10).

        When both actions share an index the entries merge (this happens
        when the policy would repeat the same action).
        """
        if not 0 <= gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")
        a = self.index_of(action)
        b = self.index_of(next_action)
        if a == b:
            value = 1.0 - gamma
            # 1 - gamma is exactly 0.0 only for gamma == 1.0, which the
            # guard above rejects; the check is an algebraic sentinel.
            return {a: value} if value != 0.0 else {}  # meghlint: ignore[MEGH003] -- exact algebraic zero, gamma < 1 guaranteed
        if gamma == 0.0:  # meghlint: ignore[MEGH003] -- exact config sentinel: gamma=0 stores a strictly sparser vector
            return {a: 1.0}
        return {a: 1.0, b: -gamma}


class VmSlotPool:
    """Free-list of VM slots mapping churning VM uids onto a fixed basis.

    The projection space is sized once (``d = capacity x M``); VMs that
    arrive and depart reuse slots instead of growing ``d`` with the
    cumulative population.  Allocation is deterministic — always the
    lowest free slot id — so a churn schedule maps to the same slot
    assignment on every run and across checkpoint/resume.

    A *uid* is the service-level VM identity (unique over the whole run);
    a *slot* is the basis/array index in ``[0, capacity)``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self._free: List[int] = list(range(capacity))
        heapq.heapify(self._free)
        self._slot_of: Dict[int, int] = {}

    @classmethod
    def restore(
        cls, capacity: int, slot_of: Mapping[int, int]
    ) -> "VmSlotPool":
        """Rebuild a pool from its ``uid -> slot`` map (checkpoint)."""
        pool = cls(capacity)
        used = set()
        for uid, slot in slot_of.items():
            uid, slot = int(uid), int(slot)
            if not 0 <= slot < capacity:
                raise ConfigurationError(
                    f"slot {slot} out of range [0, {capacity})"
                )
            if slot in used:
                raise ConfigurationError(f"slot {slot} assigned twice")
            used.add(slot)
            pool._slot_of[uid] = slot
        pool._free = [slot for slot in range(capacity) if slot not in used]
        heapq.heapify(pool._free)
        return pool

    @property
    def num_live(self) -> int:
        return len(self._slot_of)

    def allocate(self, uid: int) -> Optional[int]:
        """Bind ``uid`` to the lowest free slot; ``None`` when full."""
        if uid in self._slot_of:
            raise ConfigurationError(f"uid {uid} is already allocated")
        if not self._free:
            return None
        slot = heapq.heappop(self._free)
        self._slot_of[uid] = slot
        return slot

    def release(self, uid: int) -> int:
        """Return ``uid``'s slot to the free list; returns the slot."""
        slot = self._slot_of.pop(uid, None)
        if slot is None:
            raise ConfigurationError(f"uid {uid} is not allocated")
        heapq.heappush(self._free, slot)
        return slot

    def live_uids(self) -> List[int]:
        """Live uids in ascending order (deterministic iteration)."""
        return sorted(self._slot_of)
