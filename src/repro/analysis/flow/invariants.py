"""Declared invariant table consumed by the MEGH011 flow rule.

This table is the *specification* MEGH011 checks code against — the
contract prose of ``repro/cloudsim/soa.py`` ("mutations only flip a
dirty flag"), ``repro/core/sparse.py`` ("``mutations`` counts every
state change"), and ``repro/core/lstd.py`` ("every external write
reports the touched index") written down as data.  MEGH011 derives its
obligations from :data:`MUTATION_INVARIANTS`.  The declared ndarray
dtypes and dimensions live in :mod:`repro.analysis.shape.dims`.

Keeping the table here, rather than inferring it from the source,
is deliberate: if a refactor renames a field or adds an aggregate, the
table must be updated in the same PR, and the self-analysis test
(``tests/analysis/test_self_lint.py``) fails loudly until the
declaration and the code agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple

__all__ = ["MutationInvariant", "MUTATION_INVARIANTS"]


@dataclass(frozen=True)
class MutationInvariant:
    """Field→flag contract for one lazily-invalidated class.

    Attributes:
        class_name: The owning class (matched by name in fixtures too).
        fields: Array/container field -> set of invalidation *flags*
            that must be set on every path after a mutation.
        marks: Mark-method name -> the flags that calling it sets.
        flag_attrs: Flags that may also be satisfied by a direct
            ``receiver.<flag> = True`` assignment.
        counter: A monotone counter attribute; bumping it satisfies
            *every* field's obligation (SparseMatrix.mutations style).
        scope: ``"global"`` — the field names are distinctive enough to
            match on any receiver anywhere in the project (the
            DatacenterArrays vectors); ``"class"`` — only match inside
            methods of the declaring class (SparseMatrix internals use
            generic names like ``_data``).
        exempt_methods: Methods of the declaring class never analyzed
            (constructors initialize; flags start dirty by design).
    """

    class_name: str
    fields: Mapping[str, FrozenSet[str]]
    marks: Mapping[str, FrozenSet[str]]
    flag_attrs: FrozenSet[str] = frozenset()
    counter: Optional[str] = None
    scope: str = "global"
    exempt_methods: FrozenSet[str] = frozenset({"__init__"})


_ALL_PM_AGGREGATES = frozenset(
    {"_ram_dirty", "_demand_dirty", "_delivered_dirty"}
)

#: ``DatacenterArrays``: every hot-state vector that feeds a lazily
#: rebuilt per-PM aggregate, paired with the dirty flag(s) guarding it.
#: ``pm_vm_count`` (exact integer, maintained incrementally),
#: ``pm_asleep``, the per-PM capacity vectors (read fresh on every
#: derived-utilization call, never cached) and ``vm_bandwidth_mbps``
#: (no aggregate reads it) carry no flag on purpose.
_DATACENTER_ARRAYS = MutationInvariant(
    class_name="DatacenterArrays",
    fields={
        "host_of": _ALL_PM_AGGREGATES,
        "vm_demand": frozenset({"_demand_dirty"}),
        "vm_delivered": frozenset({"_delivered_dirty"}),
        "vm_active": frozenset({"_demand_dirty", "_delivered_dirty"}),
        "vm_mips": frozenset({"_demand_dirty", "_delivered_dirty"}),
        "vm_ram_mb": frozenset({"_ram_dirty"}),
    },
    marks={
        "mark_placement_dirty": _ALL_PM_AGGREGATES,
        "mark_demand_dirty": frozenset({"_demand_dirty"}),
        "mark_delivered_dirty": frozenset({"_delivered_dirty"}),
        "mark_activity_dirty": frozenset(
            {"_demand_dirty", "_delivered_dirty"}
        ),
    },
    flag_attrs=_ALL_PM_AGGREGATES,
    counter=None,
    scope="global",
)

#: ``SparseMatrix``: any write to the backing store — the implicit
#: diagonal, the slot tables, the pool and their store block — must bump
#: the ``mutations`` counter so the dirty-row theta cache can detect
#: out-of-band writes.  Scope is "class": the field names are generic
#: and all mutation happens inside the class by design.  The slot-table
#: layout helpers only move or allocate storage (a materialized row's
#: relocation, the diagonal's move into a slot, a compaction, freeing an
#: emptied row), never a logical entry, so they are exempt like the
#: constructor.
_SPARSE_MATRIX = MutationInvariant(
    class_name="SparseMatrix",
    fields={
        "_diag": frozenset({"mutations"}),
        "_slot_of": frozenset({"mutations"}),
        "_slot_row": frozenset({"mutations"}),
        "_off": frozenset({"mutations"}),
        "_len": frozenset({"mutations"}),
        "_cap": frozenset({"mutations"}),
        "_pool_idx": frozenset({"mutations"}),
        "_pool_val": frozenset({"mutations"}),
        "_store": frozenset({"mutations"}),
        "_cols": frozenset({"mutations"}),
        "_nnz": frozenset({"mutations"}),
    },
    marks={},
    flag_attrs=frozenset(),
    counter="mutations",
    scope="class",
    exempt_methods=frozenset(
        {
            "__init__",
            "_point_store",
            "_new_slot",
            "_reserve",
            "_free_slot",
            "_repack",
            "_lay_out",
            "_materialize",
        }
    ),
)

#: ``RewardVector``: every external write must report the touched index
#: through ``_on_external_write`` so dependent theta rows invalidate.
_REWARD_VECTOR = MutationInvariant(
    class_name="RewardVector",
    fields={
        "_data": frozenset({"_on_external_write"}),
        "_dense": frozenset({"_on_external_write"}),
    },
    marks={"_on_external_write": frozenset({"_on_external_write"})},
    flag_attrs=frozenset(),
    counter=None,
    scope="class",
)

#: ``PendingUpdates``: the deferred-kernel staging engine
#: (``repro/core/kern.py``).  Every change to the staged-update log or
#: the dirty-row tracking — enqueue, per-row flush, window retirement —
#: must bump its ``mutations`` counter so anything derived from a
#: staging snapshot can detect out-of-band changes, mirroring the
#: ``SparseMatrix.mutations`` discipline the replay writes through to.
#: The reusable marshaling buffers (``_one_row``,
#: ``_two_rows``, ...) and the profiling counters carry no obligation:
#: they are scratch, not staging state.  ``flush_all`` discharges
#: through ``_reset``/``_replay_batch`` — the rule's counter closure
#: admits helpers that unconditionally bump.
_PENDING_UPDATES = MutationInvariant(
    class_name="PendingUpdates",
    fields={
        "_n": frozenset({"mutations"}),
        "_pivots": frozenset({"mutations"}),
        "_scales": frozenset({"mutations"}),
        "_upd_offsets": frozenset({"mutations"}),
        "_cols_flat": frozenset({"mutations"}),
        "_vals_flat": frozenset({"mutations"}),
        "_pend_rows": frozenset({"mutations"}),
        "_pend_rows_n": frozenset({"mutations"}),
        "_dirty": frozenset({"mutations"}),
        "_dirty_count": frozenset({"mutations"}),
        "_watermark": frozenset({"mutations"}),
        "_advanced": frozenset({"mutations"}),
    },
    marks={},
    flag_attrs=frozenset(),
    counter="mutations",
    scope="class",
)

MUTATION_INVARIANTS: Tuple[MutationInvariant, ...] = (
    _DATACENTER_ARRAYS,
    _SPARSE_MATRIX,
    _REWARD_VECTOR,
    _PENDING_UPDATES,
)

