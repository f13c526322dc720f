"""Sparse square matrix specialised for Megh's update pattern (Section 5.2).

The inverse operator ``B`` starts diagonal and is only ever modified by
rank-1 updates whose left factor is a single column of ``B`` and whose
right factor combines two rows of ``B``.  Every operation Megh needs is
therefore proportional to the number of stored non-zeros touched — the
"triplet" property the paper credits for Megh's real-time speed.

Storage layout — flat slot tables, one store for both backends:

* the diagonal of rows that have never seen fill-in lives in one dense
  ``float64`` array ``_diag`` (``B_0 = (1/delta) I`` costs one ``fill``,
  not ``d`` inserts);
* a row touched by an update is *materialized* into a **slot**:
  ``_slot_of[i]`` (``int32``; ``0``, the null slot, for an implicit row)
  names it, and
  the per-slot arrays ``_off``/``_len``/``_cap`` place its sorted column
  indices and values in the pooled arrays ``_pool_idx``/``_pool_val``
  (``_slot_row`` maps a slot back to its row, ``-1`` once freed);
* pool space and slots are bump-allocated.  A row that outgrows its
  capacity moves to the top of the pool with capacity
  ``max(_MIN_CAPACITY, 2 * length)`` (a *relocation*; the old region
  becomes dead space), and an emptied row frees its slot and returns
  to the implicit store.  When the pool or the slot table is full,
  :meth:`SparseMatrix._repack` copies the live rows densely into
  fresh arrays — doubled until at most half full — (a *compaction*);
* the block ``_store`` (``int64``, layout ``kern.S_*``) carries the
  table pointers, the two bump allocators and the relocation and
  compaction counters, so the compiled flush kernel replays and
  installs rows in these tables directly, and the fused row combine
  reads them by row id;
* a column index (``column -> set of materialized rows``) keeps column
  extraction proportional to the column's non-zeros.

Rows are kept sorted by column index, which makes every traversal order
deterministic (run-to-run reproducibility) and lets dot products gather
straight out of a dense operand with one fancy-index read.  Only the
values and the implicit/materialized split are observable; capacities,
offsets and slot numbers are layout and never change a float.

``mutations`` counts every state change; callers that memoize derived
quantities (:class:`repro.core.lstd.SparseLstd`'s dirty-row theta cache)
compare it to detect out-of-band writes such as the contract tests'
deliberate corruption.

Deferred rank-k updates (meghkern, ``REPRO_KERNEL``): when the compiled
C kernel is available (the default ``auto`` mode; without a compiler the
matrix stays on the eager path),
:meth:`SparseMatrix.rank_one_update_from_column` stages rank-1 updates in
a :class:`repro.core.kern.PendingUpdates` engine instead of scattering
immediately.  Every read path flushes exactly the
rows it touches, replaying each row's staged contributions in submission
order — bit-identical to the eager path by construction (see the
``kern`` module docstring for the argument).  A staged update bumps
``mutations`` exactly once at enqueue; the flush itself is
representation preserving and bumps nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kern
from repro.errors import ConfigurationError

#: Magnitudes at or below this are dropped from the store, bounding
#: fill-in noise.  The one prune rule of both backends: drop iff
#: ``|v| <= PRUNE_EPSILON``, so a NaN result is kept.
PRUNE_EPSILON = 1e-14

#: Smallest materialized-row capacity; growth doubles from here.
_MIN_CAPACITY = 4

#: Initial slot-table and pool sizes; both double on demand.
_INITIAL_SLOTS = 64
_INITIAL_POOL = 1024

#: Right factor of :meth:`SparseMatrix.reset_indices`' column zeroing.
_MINUS_ONE = np.array([-1.0])


def _gather_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pool positions of runs ``[starts[k], starts[k] + lengths[k])``,
    back to back (the vectorized walk over a set of slots)."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.shape[0] else 0
    within = np.arange(total, dtype=np.int64)
    within -= np.repeat(ends - lengths, lengths)
    return np.repeat(starts, lengths) + within


class SparseMatrix:
    """A ``dimension x dimension`` sparse matrix of floats.

    Never-touched rows store at most their diagonal entry in a shared
    dense array; touched rows live in the slot tables (see the module
    docstring).  The public API is value-compatible with the historical
    dict-of-dicts implementation.
    """

    def __init__(self, dimension: int, kernel: Optional[str] = None) -> None:
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        self.dimension = dimension
        #: Diagonal entries of rows that were never materialized.
        self._diag = np.zeros(dimension, dtype=np.float64)
        #: Row -> slot; slot 0 is the null slot, so ``0`` marks an
        #: implicit-diagonal row and the zero-filled table costs no
        #: memory for rows that are never materialized.
        self._slot_of = np.zeros(dimension, dtype=np.int32)
        self._slot_row = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._off = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._len = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._cap = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._pool_idx = np.empty(_INITIAL_POOL, dtype=np.int64)
        self._pool_val = np.empty(_INITIAL_POOL, dtype=np.float64)
        self._store = np.zeros(kern.S_FIELDS, dtype=np.int64)
        #: The block's address, handed to the kernel on every call.
        self._store_ptr = self._store.ctypes.data
        self._slot_row[:1] = -1  # the null slot is never live
        self._store[kern.S_SLOT_TOP] = 1
        self._store[kern.S_SLOT_CAP] = _INITIAL_SLOTS
        self._store[kern.S_POOL_CAP] = _INITIAL_POOL
        self._store[kern.S_MIN_CAP] = _MIN_CAPACITY
        self._point_store()
        self._cols: Dict[int, Set[int]] = {}
        #: Column -> cached ndarray of its stored support, for the hot
        #: enqueue-time prediction (:meth:`column_support`).  Invalidated
        #: on every *addition* to a column's row set; removals leave the
        #: cached array a stale superset, which every caller tolerates.
        self._support_cache: Dict[int, np.ndarray] = {}
        self._nnz = 0
        #: Bumped on every mutation; lets caches detect external writes.
        self.mutations = 0
        #: Deferred rank-k staging engine (None = eager legacy path).
        #: ``kernel`` overrides the ``REPRO_KERNEL`` environment choice.
        self._kernel_mode = kern.resolve_mode() if kernel is None else kernel
        self._pending = kern.make_pending(self._kernel_mode, dimension)

    @property
    def kernel_name(self) -> str:
        """Active flush backend: ``"c"`` or ``"off"`` (eager)."""
        if self._pending is None:
            return "off"
        return self._pending.backend.name

    @property
    def kernel_backend(self) -> Optional["kern.CKernel"]:
        """The compiled flush backend (``None`` when deferral is off).

        Lets hot callers reach the kernel's fused row combine.
        """
        if self._pending is None:
            return None
        return self._pending.backend

    def kernel_stats(self) -> Dict[str, object]:
        """Snapshot of the deferred engine's profiling counters.

        Stable schema across backends (zeros when deferral is off) so
        benchmarks can diff two snapshots for a per-phase breakdown:
        ``enqueue_seconds``/``flush_seconds`` split the staging cost
        from the replay cost, and the count fields say how much work
        each phase did.  ``relocations`` (rows moved inside the pool)
        and ``compactions`` (pool/slot-table repacks) describe the
        store, so both backends report them.
        """
        store = self._store
        layout = {
            "relocations": int(store[kern.S_RELOCATIONS]),
            "compactions": int(store[kern.S_COMPACTIONS]),
        }
        pending = self._pending
        if pending is None:
            return {
                "kernel": "off",
                "window": 0,
                "pending_count": 0,
                "enqueued": 0,
                "row_flushes": 0,
                "full_flushes": 0,
                "applied": 0,
                "skipped": 0,
                "enqueue_seconds": 0.0,
                "flush_seconds": 0.0,
                **layout,
            }
        return {
            "kernel": pending.backend.name,
            "window": pending.window,
            "pending_count": pending.pending_count,
            "enqueued": pending.enqueued,
            "row_flushes": pending.row_flushes,
            "full_flushes": pending.full_flushes,
            "applied": pending.applied,
            "skipped": pending.skipped,
            "enqueue_seconds": pending.enqueue_seconds,
            "flush_seconds": pending.flush_seconds,
            **layout,
        }

    @classmethod
    def identity(
        cls,
        dimension: int,
        scale: float = 1.0,
        kernel: Optional[str] = None,
    ) -> "SparseMatrix":
        """``scale * I`` — Megh's ``B_0 = (1/delta) I`` in one array fill."""
        matrix = cls(dimension, kernel=kernel)
        if abs(scale) > PRUNE_EPSILON:
            matrix._diag.fill(scale)
            matrix._nnz = dimension
            matrix.mutations += 1
        return matrix

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.dimension and 0 <= j < self.dimension):
            raise ConfigurationError(
                f"index ({i}, {j}) out of range for dimension {self.dimension}"
            )

    # ------------------------------------------------------------------
    # Deferred-kernel flush discipline (read-through resolution)
    # ------------------------------------------------------------------
    def _flush_row(self, i: int) -> None:
        """Apply row ``i``'s staged rank-1 contributions before a read."""
        pending = self._pending
        if pending is not None:
            pending.flush_row(self, i)

    def _settle_row(self, i: int) -> None:
        """Bring row ``i`` up to date before a direct write to it."""
        pending = self._pending
        if pending is not None:
            pending.settle_row(self, i)

    def _flush_column(self, j: int) -> None:
        """Flush every row a staged update could touch in column ``j``."""
        pending = self._pending
        if pending is not None:
            pending.flush_column(self, j)

    def flush_rows(self, rows: np.ndarray) -> None:
        """Batched row flush — one kernel call for a whole dirty batch.

        Value-equivalent to flushing each row individually (flush order
        never changes floats — see the ``kern`` module docstring) but
        amortizes the per-call marshaling cost; the theta refresh path
        uses it before its per-row dot products.
        """
        pending = self._pending
        if pending is not None and pending.has_pending:
            pending.flush_rows(self, np.asarray(rows, dtype=np.int64))

    def flush_pending(self) -> None:
        """Apply every staged rank-1 update (grouped flush).

        Idempotent and representation preserving: the logical matrix
        value never changes, so ``mutations`` stays put.  Whole-matrix
        consumers (checkpoints, dense cross-checks, ``items``/``nnz``)
        call this; row/column reads flush narrower slices instead.
        """
        pending = self._pending
        if pending is not None and pending.has_pending:
            pending.flush_all(self)

    def column_support(self, j: int) -> np.ndarray:
        """Superset of the rows whose column-``j`` entry is nonzero.

        Without flushing anything: the stored support plus the row
        support of every staged update that touches column ``j``.  Exact
        modulo epsilon prunes and zero-weight skips — callers use it for
        conservative dirty-row invalidation (boolean masking) and for
        predicting the rows a new rank-1 update can touch (a zero-weight
        row costs one skipped lookup at replay, never a wrong float).
        Unsorted and may contain duplicates or rows whose entry has since
        been pruned — all harmless to mask scatters, and skipping the
        dedup (plus caching the stored support across calls) keeps
        enqueue integer-cheap.
        """
        self._check_index(0, j)
        parts: List[np.ndarray] = []
        stored = self._cols.get(j)
        if stored:
            cached = self._support_cache.get(j)
            if cached is None:
                cached = np.fromiter(stored, dtype=np.int64, count=len(stored))
                self._support_cache[j] = cached
            parts.append(cached)
        if self._slot_of[j] == 0 and self._diag[j] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
            parts.append(np.array([j], dtype=np.int64))
        pending = self._pending
        if pending is not None and pending.has_pending:
            parts.extend(pending.pending_rows_for_column(j))
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Slot-table layout.  These helpers move or allocate storage without
    # changing any logical entry, so the MEGH011 table exempts them from
    # the mutation counter (kern.py's kernel makes the same moves).
    # ------------------------------------------------------------------
    def _point_store(self) -> None:
        """Write the current table addresses into the store block."""
        store = self._store
        store[kern.S_DIAG] = self._diag.ctypes.data
        store[kern.S_SLOT_OF] = self._slot_of.ctypes.data
        store[kern.S_SLOT_ROW] = self._slot_row.ctypes.data
        store[kern.S_OFF] = self._off.ctypes.data
        store[kern.S_LEN] = self._len.ctypes.data
        store[kern.S_CAP] = self._cap.ctypes.data
        store[kern.S_POOL_IDX] = self._pool_idx.ctypes.data
        store[kern.S_POOL_VAL] = self._pool_val.ctypes.data

    def _new_slot(self, i: int, capacity: int) -> int:
        """Give implicit row ``i`` an empty slot of ``capacity`` entries."""
        store = self._store
        slot = int(store[kern.S_SLOT_TOP])
        offset = int(store[kern.S_POOL_TOP])
        if (
            slot >= store[kern.S_SLOT_CAP]
            or offset + capacity > store[kern.S_POOL_CAP]
        ):
            self._repack(1, capacity)
            slot = int(store[kern.S_SLOT_TOP])
            offset = int(store[kern.S_POOL_TOP])
        store[kern.S_SLOT_TOP] = slot + 1
        store[kern.S_POOL_TOP] = offset + capacity
        self._slot_row[slot] = i
        self._off[slot] = offset
        self._len[slot] = 0
        self._cap[slot] = capacity
        self._slot_of[i] = slot
        return slot

    def _reserve(self, i: int, needed: int) -> int:
        """Room for ``needed`` entries in materialized row ``i``.

        A row that is too small moves to the top of the pool with
        capacity ``max(_MIN_CAPACITY, 2 * needed)``.  Returns the row's
        slot (a compaction renumbers slots).
        """
        slot = int(self._slot_of[i])
        capacity = int(self._cap[slot])
        if needed <= capacity:
            return slot
        grown = max(_MIN_CAPACITY, 2 * needed)
        store = self._store
        if store[kern.S_POOL_TOP] + grown > store[kern.S_POOL_CAP]:
            self._repack(0, grown)
            slot = int(self._slot_of[i])
        top = int(store[kern.S_POOL_TOP])
        start = int(self._off[slot])
        end = start + int(self._len[slot])
        length = end - start
        self._pool_idx[top : top + length] = self._pool_idx[start:end]
        self._pool_val[top : top + length] = self._pool_val[start:end]
        self._off[slot] = top
        self._cap[slot] = grown
        store[kern.S_POOL_TOP] = top + grown
        store[kern.S_RELOCATIONS] += 1
        return slot

    def _free_slot(self, i: int, slot: int) -> None:
        """Return row ``i``'s slot; the row becomes implicit again.

        Callers free only an emptied row, or drop a row whose entries
        they have already taken out of the count and the column index.
        """
        self._slot_row[slot] = -1
        self._len[slot] = 0
        self._slot_of[i] = 0

    def _repack(self, slots: int, entries: int) -> None:
        """Compact the live rows into fresh tables (a *compaction*).

        Afterwards at least ``slots`` free slots and a free pool region
        of ``entries`` exist.  Slots are renumbered in their old order,
        so no row order or float changes.
        """
        store = self._store
        live = np.flatnonzero(
            self._slot_row[: int(store[kern.S_SLOT_TOP])] >= 0
        )
        lengths = self._len[live]
        source = _gather_index(self._off[live], lengths)
        self._lay_out(
            self._slot_row[live],
            lengths,
            self._cap[live],
            self._pool_idx[source],
            self._pool_val[source],
            slots,
            entries,
        )
        store[kern.S_COMPACTIONS] += 1

    def _lay_out(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        capacities: np.ndarray,
        columns: np.ndarray,
        values: np.ndarray,
        slots: int,
        entries: int,
    ) -> None:
        """Fresh tables holding ``rows`` in slots ``1..len(rows)``.

        ``columns``/``values`` are the rows' entries back to back.  Each
        table doubles from its current size until it is at most half
        full with ``slots`` more slots and ``entries`` more pool entries.
        """
        store = self._store
        count = int(rows.shape[0])
        used = int(capacities.sum())
        slot_cap = int(store[kern.S_SLOT_CAP])
        while 2 * (count + 1 + slots) > slot_cap:
            slot_cap *= 2
        pool_cap = int(store[kern.S_POOL_CAP])
        while 2 * (used + entries) > pool_cap:
            pool_cap *= 2
        offsets = np.zeros(count, dtype=np.int64)
        if count > 1:
            np.cumsum(capacities[:-1], out=offsets[1:])
        target = _gather_index(offsets, lengths)
        pool_idx = np.empty(pool_cap, dtype=np.int64)
        pool_val = np.empty(pool_cap, dtype=np.float64)
        pool_idx[target] = columns
        pool_val[target] = values
        slot_row = np.empty(slot_cap, dtype=np.int64)
        off = np.empty(slot_cap, dtype=np.int64)
        length = np.empty(slot_cap, dtype=np.int64)
        cap = np.empty(slot_cap, dtype=np.int64)
        slot_row[0] = -1
        off[0] = length[0] = cap[0] = 0
        slot_row[1 : count + 1] = rows
        off[1 : count + 1] = offsets
        length[1 : count + 1] = lengths
        cap[1 : count + 1] = capacities
        self._pool_idx = pool_idx
        self._pool_val = pool_val
        self._slot_row = slot_row
        self._off = off
        self._len = length
        self._cap = cap
        self._slot_of[rows] = np.arange(1, count + 1, dtype=np.int64)
        store[kern.S_SLOT_TOP] = count + 1
        store[kern.S_SLOT_CAP] = slot_cap
        store[kern.S_POOL_TOP] = used
        store[kern.S_POOL_CAP] = pool_cap
        self._point_store()

    def _materialize(self, i: int) -> int:
        """Promote row ``i`` from the implicit-diagonal store to a slot."""
        slot = self._new_slot(i, _MIN_CAPACITY)
        diagonal = self._diag[i]
        if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel: 0.0 means "absent"
            offset = int(self._off[slot])
            self._pool_idx[offset] = i
            self._pool_val[offset] = diagonal
            self._len[slot] = 1
            self._diag[i] = 0.0
            self._cols.setdefault(i, set()).add(i)
            self._support_cache.pop(i, None)
        return slot

    # ------------------------------------------------------------------
    # Row maintenance (the eager path's writes)
    # ------------------------------------------------------------------
    def _insert_many(
        self,
        i: int,
        positions: np.ndarray,
        columns: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Merge ``columns``/``values`` (sorted) into materialized row ``i``
        at ``positions``."""
        count = int(columns.shape[0])
        if count == 0:
            return
        n = int(self._len[self._slot_of[i]])
        needed = n + count
        slot = self._reserve(i, needed)
        start = int(self._off[slot])
        region_idx = self._pool_idx[start : start + needed]
        region_val = self._pool_val[start : start + needed]
        old_idx = region_idx[:n].copy()
        old_val = region_val[:n].copy()
        target = np.zeros(needed, dtype=bool)
        target[positions + np.arange(count, dtype=np.int64)] = True
        region_idx[target] = columns
        region_val[target] = values
        region_idx[~target] = old_idx
        region_val[~target] = old_val
        self._len[slot] = needed  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        support_cache = self._support_cache
        for j in columns.tolist():
            self._cols.setdefault(j, set()).add(i)  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
            support_cache.pop(j, None)
        self._nnz += count  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating

    def _remove_positions(self, i: int, positions: np.ndarray) -> None:
        count = int(positions.shape[0])
        if count == 0:
            return
        slot = int(self._slot_of[i])
        start = int(self._off[slot])
        n = int(self._len[slot])
        region_idx = self._pool_idx[start : start + n]
        region_val = self._pool_val[start : start + n]
        removed = region_idx[positions]
        keep = np.ones(n, dtype=bool)
        keep[positions] = False
        region_idx[: n - count] = region_idx[keep]
        region_val[: n - count] = region_val[keep]
        self._len[slot] = n - count  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        for j in removed.tolist():
            rows_of_column = self._cols.get(j)
            if rows_of_column is not None:
                rows_of_column.discard(i)
                if not rows_of_column:
                    del self._cols[j]  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        self._nnz -= count  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        if n == count:
            self._free_slot(i, slot)

    def _span(self, i: int) -> Tuple[int, int]:
        """``(start, end)`` of materialized row ``i`` in the pool."""
        slot = self._slot_of[i]
        start = int(self._off[slot])
        return start, start + int(self._len[slot])

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> float:
        """Entry ``(i, j)``; 0 when unstored."""
        self._check_index(i, j)
        self._flush_row(i)
        if self._slot_of[i] == 0:
            return float(self._diag[i]) if i == j else 0.0
        start, end = self._span(i)
        stored = self._pool_idx[start:end]
        position = int(np.searchsorted(stored, j))
        if position < end - start and stored[position] == j:
            return float(self._pool_val[start + position])
        return 0.0

    def set(self, i: int, j: int, value: float) -> None:
        """Store (or, for tiny values, erase) entry ``(i, j)``."""
        self._check_index(i, j)
        self._settle_row(i)
        self.mutations += 1
        materialized = self._slot_of[i] > 0
        if abs(value) <= PRUNE_EPSILON:
            if not materialized:
                if i == j and self._diag[i] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                    self._diag[i] = 0.0
                    self._nnz -= 1
                return
            start, end = self._span(i)
            position = int(np.searchsorted(self._pool_idx[start:end], j))
            if position < end - start and self._pool_idx[start + position] == j:
                self._remove_positions(
                    i, np.array([position], dtype=np.int64)
                )
            return
        if not materialized:
            if i == j:
                if self._diag[i] == 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                    self._nnz += 1
                self._diag[i] = value
                return
            self._materialize(i)
        start, end = self._span(i)
        position = int(np.searchsorted(self._pool_idx[start:end], j))
        if position < end - start and self._pool_idx[start + position] == j:
            self._pool_val[start + position] = value
            return
        self._insert_many(
            i,
            np.array([position], dtype=np.int64),
            np.array([j], dtype=np.int64),
            np.array([value], dtype=np.float64),
        )

    def add(self, i: int, j: int, delta: float) -> None:
        """In-place ``B[i, j] += delta``."""
        self.set(i, j, self.get(i, j) + delta)

    # ------------------------------------------------------------------
    # Row / column extraction
    # ------------------------------------------------------------------
    def row(self, i: int) -> Dict[int, float]:
        """Non-zero entries of row ``i`` (a copy, in column order)."""
        indices, values = self.row_view(i)
        return dict(zip(indices.tolist(), values.tolist()))

    def row_view(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i`` as ``(indices, values)`` arrays sorted by column.

        Materialized rows return *views* into the live pool — copy
        before mutating the matrix.  Implicit-diagonal rows return fresh
        one-element (or empty) arrays.
        """
        self._check_index(i, 0)
        self._flush_row(i)
        if self._slot_of[i] == 0:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return (
                    np.array([i], dtype=np.int64),
                    np.array([diagonal], dtype=np.float64),
                )
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        start, end = self._span(i)
        return self._pool_idx[start:end], self._pool_val[start:end]

    def column(self, j: int) -> Dict[int, float]:
        """Non-zero entries of column ``j`` (a copy, in row order)."""
        self._check_index(0, j)
        self._flush_column(j)
        result: Dict[int, float] = {}
        for i in self.rows_with_column(j):
            result[i] = self.get(i, j)
        return result

    def rows_with_column(self, j: int) -> List[int]:
        """Sorted rows holding a stored entry in column ``j``.

        This is the support of ``B e_j`` — exactly the set of rows whose
        ``theta`` entry can change when column ``j`` (or ``z[j]``) does,
        which is what the dirty-row cache invalidates.
        """
        self._check_index(0, j)
        self._flush_column(j)
        rows = sorted(self._cols.get(j, ()))
        if self._slot_of[j] == 0 and self._diag[j] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
            rows.append(j)
            rows.sort()
        return rows

    def non_diagonal_indices(
        self, indices: Sequence[int], value: float
    ) -> Set[int]:
        """The ``i`` in ``indices`` whose row or column is not ``value * e_i``.

        An index passes when its row is the implicit diagonal holding
        exactly ``value`` and no stored row holds its column; anything
        else (including a materialized row that happens to equal
        ``value * e_i``) is returned.  ``value`` must be nonzero: a
        materialized row keeps ``0.0`` in the implicit store, so one
        vectorized read of the diagonal flags it.  ``indices`` is a
        ``range`` or a list of distinct in-range indices.  Costs the
        size of ``indices``, not of the matrix.
        """
        self.flush_pending()
        if isinstance(indices, range):
            block = np.arange(
                indices.start, indices.stop, indices.step, dtype=np.int64
            )
        else:
            block = np.asarray(indices, dtype=np.int64)
        changed = self._cols.keys() & indices
        changed.update(block[self._diag[block] != value].tolist())
        return changed

    def reset_indices(self, indices: Sequence[int], value: float) -> np.ndarray:
        """Set row and column ``i`` to ``value * e_i`` for each ``i``.

        Each column is zeroed by one rank-1 write through the Eq. 11
        path, ``B += -B[:, i] e_i^T``: every holder ``w`` becomes
        ``w + (-w) = +0.0``, which the eager scatter and the compiled
        replay both prune, so the deferred kernel stages the whole
        column at integer cost.  One grouped flush applies them; then
        each row is dropped whole and ``value`` goes back into the
        implicit diagonal store, the layout of a never-touched row.  A
        holder that is not finite (``inf - inf`` is NaN) survives the
        write under both backends and is erased entry by entry.
        ``indices`` must be distinct.

        Returns a superset of the rows whose stored entries changed
        outside ``indices`` — what a row-keyed cache must invalidate.
        """
        parts: List[np.ndarray] = []
        for i in indices:
            parts.append(
                self.rank_one_update_from_column(
                    i,
                    np.array([i], dtype=np.int64),
                    _MINUS_ONE,
                    scale=1.0,
                    assume_normalized=True,
                )
            )
        self.flush_pending()
        for i in indices:
            survivors = self._cols.get(i)
            if survivors:
                for r in sorted(survivors):
                    self.set(r, i, 0.0)
        self.mutations += 1
        cols = self._cols
        for i in indices:
            # Column i now has no stored holder: its cached support would
            # only ever be a stale superset.
            self._support_cache.pop(i, None)
            slot = int(self._slot_of[i])
            if slot > 0:
                start, end = self._span(i)
                for j in self._pool_idx[start:end].tolist():
                    holders = cols[j]
                    holders.discard(i)
                    if not holders:
                        del cols[j]
                self._nnz -= end - start
                self._free_slot(i, slot)
            self._nnz -= int(np.count_nonzero(self._diag[i]))
            if abs(value) > PRUNE_EPSILON:
                self._diag[i] = value
                self._nnz += 1
            else:
                self._diag[i] = 0.0
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # Dot products
    # ------------------------------------------------------------------
    def row_dot(self, i: int, vector: Dict[int, float]) -> float:
        """Dot product of row ``i`` with a sparse (dict) vector."""
        self._check_index(i, 0)
        self._flush_row(i)
        if self._slot_of[i] == 0:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return float(diagonal * vector.get(i, 0.0))
            return 0.0
        start, end = self._span(i)
        n = end - start
        count = len(vector)
        stored = self._pool_idx[start:end]
        gathered = np.zeros(n, dtype=np.float64)
        if count:
            keys = np.fromiter(vector.keys(), dtype=np.int64, count=count)
            vals = np.fromiter(vector.values(), dtype=np.float64, count=count)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            vals = vals[order]
            positions = np.searchsorted(keys, stored)
            in_range = positions < count
            hits = np.zeros(n, dtype=bool)
            hits[in_range] = keys[positions[in_range]] == stored[in_range]
            gathered[hits] = vals[positions[hits]]
        return float(np.dot(self._pool_val[start:end], gathered))

    def row_dot_dense(self, i: int, dense_vector: np.ndarray) -> float:
        """Dot product of row ``i`` with a dense operand — the hot path.

        One fancy-index gather plus one BLAS dot; no per-entry Python.
        """
        pending = self._pending
        if pending is not None:
            pending.flush_row(self, i)
        slot = self._slot_of[i]
        if slot == 0:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return float(diagonal * dense_vector[i])
            return 0.0
        start = self._off[slot]
        end = start + self._len[slot]
        return float(
            np.dot(
                self._pool_val[start:end],
                dense_vector[self._pool_idx[start:end]],
            )
        )

    # ------------------------------------------------------------------
    # The Sherman–Morrison core
    # ------------------------------------------------------------------
    def rank_one_update(
        self, col: Dict[int, float], row: Dict[int, float], scale: float
    ) -> None:
        """``B += scale * col (x) row`` — vectorized scatter per touched row.

        Cost is O(nnz(col) * nnz(row) / simd) plus one Python iteration
        per *row* touched (never per entry), independent of dimension.
        """
        if scale == 0.0:  # meghlint: ignore[MEGH003] -- exact-zero short-circuit; any nonzero scale must update
            return
        count = len(row)
        columns = np.fromiter(row.keys(), dtype=np.int64, count=count)
        values = np.fromiter(row.values(), dtype=np.float64, count=count)
        self.rank_one_update_arrays(col, columns, values, scale)

    def rank_one_update_arrays(
        self,
        col: Dict[int, float],
        columns: np.ndarray,
        values: np.ndarray,
        scale: float,
    ) -> None:
        """:meth:`rank_one_update` with the right factor pre-flattened.

        ``columns``/``values`` need not be sorted or zero-free; both are
        normalized here once, then every touched row shares the sorted
        scatter plan.
        """
        if scale == 0.0:  # meghlint: ignore[MEGH003] -- exact-zero short-circuit; any nonzero scale must update
            return
        nonzero = values != 0.0  # meghlint: ignore[MEGH003] -- exact-zero short-circuit, not a tolerance decision
        if not nonzero.all():
            columns = columns[nonzero]
            values = values[nonzero]
        if columns.shape[0] == 0:
            return
        order = np.argsort(columns, kind="stable")
        columns = columns[order]
        values = values[order]
        pending = self._pending
        if pending is not None and pending.has_pending:
            for i in col:
                pending.flush_row(self, i)
        self.mutations += 1
        for i, weight in col.items():
            if weight == 0.0:  # meghlint: ignore[MEGH003] -- exact-zero short-circuit, not a tolerance decision
                continue
            if pending is not None:
                pending.settle_row(self, i)
            self._scatter_add(i, columns, (scale * weight) * values)

    def rank_one_update_from_column(
        self,
        pivot: int,
        columns: np.ndarray,
        values: np.ndarray,
        scale: float,
        assume_normalized: bool = False,
    ) -> np.ndarray:
        """``B += scale * B[:, pivot] (x) right`` — Megh's Eq. 11 shape.

        Value-equivalent to ``rank_one_update_arrays(self.column(pivot),
        columns, values, scale)`` but, with the deferred kernel enabled,
        stages the update instead of scattering: enqueue records only the
        normalized right factor and the *integer* row support of column
        ``pivot`` (the left-factor weight for row ``i`` is ``B[i, pivot]``
        — an entry of row ``i`` itself, so each row's flush can read it
        at replay time).  Returns the superset of touched rows, which is
        exactly what the theta dirty-row cache must invalidate.

        ``assume_normalized=True`` promises ``columns`` is sorted unique
        and ``values`` zero-free (the compiled combine helper emits this
        form), skipping the normalization pass.
        """
        self._check_index(0, pivot)
        if scale == 0.0:  # meghlint: ignore[MEGH003] -- exact-zero short-circuit; any nonzero scale must update
            return np.empty(0, dtype=np.int64)
        if not assume_normalized:
            nonzero = values != 0.0  # meghlint: ignore[MEGH003] -- exact-zero short-circuit, not a tolerance decision
            if not nonzero.all():
                columns = columns[nonzero]
                values = values[nonzero]
            if columns.shape[0] > 1 and not bool(
                (columns[1:] > columns[:-1]).all()
            ):
                order = np.argsort(columns, kind="stable")
                columns = columns[order]
                values = values[order]
        if columns.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        pending = self._pending
        if pending is None:
            bu = self.column(pivot)
            self.rank_one_update_arrays(bu, columns, values, scale)
            return np.fromiter(bu.keys(), dtype=np.int64, count=len(bu))
        # Retire a full window *before* reading the support so the
        # stored image is settled: after the flush no row is dirty, so
        # the stored support below is exact, and mid-window the staged
        # reachability argument (next comment) holds unbroken.
        if pending.pending_count >= pending.window:
            pending.flush_all(self)
        # Enqueue marks only the *stored* support (plus the implicit
        # diagonal): a row reachable solely through an earlier staged
        # update is already dirty — it was marked when the first update
        # that could touch it was staged, and marking never advances the
        # replay watermark — so re-marking it here is a no-op the old
        # full-superset scatter paid for on every enqueue.  The returned
        # invalidation superset still includes every pending row.
        parts: List[np.ndarray] = []
        stored = self._cols.get(pivot)
        if stored:
            cached = self._support_cache.get(pivot)
            if cached is None:
                cached = np.fromiter(
                    stored, dtype=np.int64, count=len(stored)
                )
                self._support_cache[pivot] = cached
            parts.append(cached)
        if self._slot_of[pivot] == 0 and self._diag[pivot] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
            parts.append(np.array([pivot], dtype=np.int64))
        self.mutations += 1
        if parts:
            enqueue_rows = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
            pending.enqueue(self, pivot, scale, columns, values, enqueue_rows)
        elif pending.has_pending:
            # No stored support, but dirty rows may still gain a pivot
            # entry from earlier staged updates — the update must stage
            # (their replay covers it); it just marks nothing new.
            pending.enqueue(
                self, pivot, scale, columns, values,
                np.empty(0, dtype=np.int64),
            )
        else:
            # Column ``pivot`` is identically zero: a provable no-op.
            return np.empty(0, dtype=np.int64)
        parts.extend(pending.pending_rows_for_column(pivot))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _scatter_add(
        self, i: int, columns: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Row ``i`` += sparse vector (``columns`` sorted, pre-scaled).

        Prunes by the rule the compiled replay uses: an entry goes iff
        ``|v| <= PRUNE_EPSILON``, for a hit and for a fresh insert alike,
        so a NaN is kept either way.
        """
        if self._slot_of[i] == 0:
            self._materialize(i)
        start, end = self._span(i)
        n = end - start
        stored = self._pool_idx[start:end]
        positions = np.searchsorted(stored, columns)
        in_range = positions < n
        exists = np.zeros(columns.shape[0], dtype=bool)
        if n:
            exists[in_range] = stored[positions[in_range]] == columns[in_range]
        if exists.any():
            hit = positions[exists]
            values = self._pool_val[start:end]
            values[hit] += deltas[exists]
            dead = hit[np.abs(values[hit]) <= PRUNE_EPSILON]
            if dead.shape[0]:
                self._remove_positions(i, dead)
        fresh = ~exists
        if fresh.any():
            fresh_deltas = deltas[fresh]
            alive = ~(np.abs(fresh_deltas) <= PRUNE_EPSILON)
            new_columns = columns[fresh][alive]
            if new_columns.shape[0]:
                if self._slot_of[i] == 0:
                    self._materialize(i)
                start, end = self._span(i)
                new_positions = np.searchsorted(
                    self._pool_idx[start:end], new_columns
                )
                self._insert_many(
                    i, new_positions, new_columns, fresh_deltas[alive]
                )
        # Single exit: every path — hit-only, fresh-insert, or the
        # boundary case where the row was materialized empty and every
        # fresh insert is dead — frees an emptied row's slot.
        slot = int(self._slot_of[i])
        if slot > 0 and self._len[slot] == 0:
            self._free_slot(i, slot)

    # ------------------------------------------------------------------
    # Introspection and bulk transfer
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries — the Q-table size (Fig 7)."""
        self.flush_pending()
        return self._nnz

    def _triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry as ``(rows, cols, values)`` in (row, column)
        order, gathered from the tables without a per-row loop."""
        self.flush_pending()
        implicit = np.flatnonzero(self._diag)
        live = np.flatnonzero(
            self._slot_row[: int(self._store[kern.S_SLOT_TOP])] >= 0
        )
        lengths = self._len[live]
        source = _gather_index(self._off[live], lengths)
        rows = np.concatenate(
            (implicit, np.repeat(self._slot_row[live], lengths))
        )
        cols = np.concatenate((implicit, self._pool_idx[source]))
        values = np.concatenate((self._diag[implicit], self._pool_val[source]))
        # Each row is either implicit or one slot whose columns are
        # sorted, so a stable sort by row yields (row, column) order.
        order = np.argsort(rows, kind="stable")
        return rows[order], cols[order], values[order]

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(i, j, value)`` in (row, column) order."""
        rows, cols, values = self._triplets()
        return zip(rows.tolist(), cols.tolist(), values.tolist())

    def to_dict(self) -> Dict[str, Any]:
        """The settled matrix as COO triplets in (row, column) order.

        ``{"dimension": int, "rows": int64[nnz], "cols": int64[nnz],
        "values": float64[nnz]}`` — what a checkpoint stores;
        :meth:`from_dict` inverts it.
        """
        rows, cols, values = self._triplets()
        return {
            "dimension": self.dimension,
            "rows": rows,
            "cols": cols,
            "values": values,
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], kernel: Optional[str] = None
    ) -> "SparseMatrix":
        """Rebuild a matrix from :meth:`to_dict`'s triplets, in bulk.

        The triplets may come in any order; of a repeated (row, column)
        pair the last one wins, so the values, pruning and column index
        equal writing every triplet with :meth:`set` in order.  A row is
        materialized iff it keeps an off-diagonal entry.  Indices out of
        range raise :class:`ConfigurationError`.
        """
        matrix = cls(int(data["dimension"]), kernel=kernel)
        rows = np.asarray(data["rows"], dtype=np.int64)
        cols = np.asarray(data["cols"], dtype=np.int64)
        values = np.asarray(data["values"], dtype=np.float64)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise ConfigurationError(
                "sparse triplets must be three 1-D arrays of one length"
            )
        if rows.shape[0] == 0:
            return matrix
        dimension = matrix.dimension
        bad = (rows < 0) | (rows >= dimension) | (cols < 0) | (cols >= dimension)
        if bad.any():
            first = int(np.argmax(bad))
            matrix._check_index(int(rows[first]), int(cols[first]))
        # A stable sort keeps repeats in input order; the last one wins.
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        last = np.ones(rows.shape[0], dtype=bool)
        last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        matrix._load_sorted(rows[last], cols[last], values[last])
        return matrix

    def _load_sorted(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        """Bulk body of :meth:`from_dict` (unique ascending triplets)."""
        self.mutations += 1
        kept = ~(np.abs(values) <= PRUNE_EPSILON)
        rows, cols, values = rows[kept], cols[kept], values[kept]
        # A row is materialized iff it stores an off-diagonal entry.
        in_slot = np.isin(rows, rows[rows != cols])
        diagonal = ~in_slot
        self._diag[rows[diagonal]] = values[diagonal]
        slot_rows, lengths = np.unique(rows[in_slot], return_counts=True)
        self._lay_out(
            slot_rows,
            lengths,
            np.maximum(_MIN_CAPACITY, 2 * lengths),
            cols[in_slot],
            values[in_slot],
            0,
            0,
        )
        cols_index = self._cols
        for i, j in zip(rows[in_slot].tolist(), cols[in_slot].tolist()):
            holders = cols_index.get(j)
            if holders is None:
                cols_index[j] = {i}
            else:
                holders.add(i)
        self._nnz = int(rows.shape[0])

    def to_dense(self) -> np.ndarray:
        """Dense copy — for tests and small ablations only."""
        rows, cols, values = self._triplets()
        dense = np.zeros((self.dimension, self.dimension))
        dense[rows, cols] = values
        return dense

    def copy(self) -> "SparseMatrix":
        """Deep copy (pendings flushed first; the clone starts clean)."""
        self.flush_pending()
        clone = SparseMatrix(self.dimension, kernel=self._kernel_mode)
        clone._diag = self._diag.copy()
        clone._slot_of = self._slot_of.copy()
        clone._slot_row = self._slot_row.copy()
        clone._off = self._off.copy()
        clone._len = self._len.copy()
        clone._cap = self._cap.copy()
        clone._pool_idx = self._pool_idx.copy()
        clone._pool_val = self._pool_val.copy()
        clone._store[:] = self._store
        clone._point_store()
        clone._cols = {j: set(rows) for j, rows in self._cols.items()}
        clone._nnz = self._nnz
        clone.mutations = self.mutations
        return clone
