"""Sparse square matrix specialised for Megh's update pattern (Section 5.2).

The inverse operator ``B`` starts diagonal and is only ever modified by
rank-1 updates whose left factor is a single column of ``B`` and whose
right factor combines two rows of ``B``.  Every operation Megh needs is
therefore proportional to the number of stored non-zeros touched — the
"triplet" property the paper credits for Megh's real-time speed.

Storage layout (the vectorized rewrite of the original dict-of-dicts):

* the diagonal of rows that have never seen fill-in lives in one dense
  ``float64`` array (``B_0 = (1/delta) I`` costs one ``fill``, not ``d``
  dict inserts);
* a row touched by an update is *materialized* into a pair of parallel
  NumPy arrays — sorted column indices and values — with amortized
  doubling growth, so the Sherman–Morrison scatter in
  :meth:`SparseMatrix.rank_one_update` is a vectorized
  ``searchsorted`` + fused in-place add per touched row instead of a
  Python dict transaction per touched *entry*;
* a column index (``column -> set of materialized rows``) keeps column
  extraction proportional to the column's non-zeros.

Rows are kept sorted by column index, which makes every traversal order
deterministic (run-to-run reproducibility) and lets dot products gather
straight out of a dense operand with one fancy-index read.

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

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core import kern
from repro.errors import ConfigurationError

#: Magnitudes below this are dropped from the store, bounding fill-in noise.
PRUNE_EPSILON = 1e-14

#: Smallest materialized-row capacity; growth doubles from here.
_MIN_CAPACITY = 4


class _Row:
    """One materialized sparse row: sorted parallel index/value arrays.

    ``idx_data``/``val_data`` cache ``.ctypes.data`` for the C kernel:
    constructing the ctypes interface per access costs more than the
    kernel call itself on the hot path, so the pointers are refreshed
    only where the arrays are (re)allocated (here and in ``_grow``).
    """

    __slots__ = ("idx", "val", "n", "idx_data", "val_data")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        self.idx = np.empty(capacity, dtype=np.int64)
        self.val = np.empty(capacity, dtype=np.float64)
        self.n = 0
        self.idx_data = self.idx.ctypes.data
        self.val_data = self.val.ctypes.data


class SparseMatrix:
    """A ``dimension x dimension`` sparse matrix of floats.

    Never-touched rows store at most their diagonal entry in a shared
    dense array; touched rows are array-backed (see the module
    docstring).  The public API is value-compatible with the historical
    dict-of-dicts implementation.
    """

    def __init__(self, dimension: int, kernel: Optional[str] = None) -> None:
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        self.dimension = dimension
        #: Diagonal entries of rows that were never materialized.
        self._diag = np.zeros(dimension, dtype=np.float64)
        self._rows: Dict[int, _Row] = {}
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
        each phase did.
        """
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
        }

    def _row_raw(self, i: int) -> Optional[Tuple[int, int, int]]:
        """Row ``i`` as a raw ``(idx pointer, val pointer, length)`` triple.

        No flush and no bounds check: the caller must have settled the
        row (``flush_rows``) and owns index validity.  Returns ``None``
        for implicit-diagonal rows — callers fall back to
        :meth:`row_view`'s synthesized arrays there.  Pointers stay
        valid until the row's storage grows (any mutation of the row).
        """
        row = self._rows.get(i)
        if row is None:
            return None
        return (row.idx_data, row.val_data, row.n)

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
        if j not in self._rows and self._diag[j] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
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
    # Row materialization and maintenance
    # ------------------------------------------------------------------
    def _materialize(self, i: int) -> _Row:
        """Promote row ``i`` from the implicit-diagonal store to arrays."""
        row = _Row()
        diagonal = self._diag[i]
        if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel: 0.0 means "absent"
            row.idx[0] = i
            row.val[0] = diagonal
            row.n = 1
            self._diag[i] = 0.0  # meghlint: ignore[MEGH011] -- representation-preserving move of the diagonal; no logical state change
            self._cols.setdefault(i, set()).add(i)  # meghlint: ignore[MEGH011] -- representation-preserving move of the diagonal; no logical state change
            self._support_cache.pop(i, None)
        self._rows[i] = row  # meghlint: ignore[MEGH011] -- representation-preserving move of the diagonal; no logical state change
        return row

    def _grow(self, row: _Row, needed: int) -> None:
        capacity = row.idx.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(2 * capacity, needed, _MIN_CAPACITY)
        idx = np.empty(new_capacity, dtype=np.int64)
        val = np.empty(new_capacity, dtype=np.float64)
        idx[: row.n] = row.idx[: row.n]
        val[: row.n] = row.val[: row.n]
        row.idx = idx
        row.val = val
        row.idx_data = idx.ctypes.data
        row.val_data = val.ctypes.data

    def _insert_many(
        self,
        i: int,
        row: _Row,
        positions: np.ndarray,
        columns: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Merge ``columns``/``values`` (sorted) into the row at ``positions``."""
        count = int(columns.shape[0])
        if count == 0:
            return
        n = row.n
        needed = n + count
        old_idx = row.idx[:n].copy()
        old_val = row.val[:n].copy()
        self._grow(row, needed)
        target = np.zeros(needed, dtype=bool)
        target[positions + np.arange(count, dtype=np.int64)] = True
        prefix_idx = row.idx[:needed]
        prefix_val = row.val[:needed]
        prefix_idx[target] = columns
        prefix_val[target] = values
        prefix_idx[~target] = old_idx
        prefix_val[~target] = old_val
        row.n = needed
        support_cache = self._support_cache
        for j in columns.tolist():
            self._cols.setdefault(j, set()).add(i)  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
            support_cache.pop(j, None)
        self._nnz += count  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating

    def _remove_positions(self, i: int, row: _Row, positions: np.ndarray) -> None:
        count = int(positions.shape[0])
        if count == 0:
            return
        n = row.n
        removed = row.idx[positions]
        keep = np.ones(n, dtype=bool)
        keep[positions] = False
        row.idx[: n - count] = row.idx[:n][keep]
        row.val[: n - count] = row.val[:n][keep]
        row.n = n - count
        for j in removed.tolist():
            rows_of_column = self._cols.get(j)
            if rows_of_column is not None:
                rows_of_column.discard(i)
                if not rows_of_column:
                    del self._cols[j]  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        self._nnz -= count  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating
        if row.n == 0:
            del self._rows[i]  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------
    def get(self, i: int, j: int) -> float:
        """Entry ``(i, j)``; 0 when unstored."""
        self._check_index(i, j)
        self._flush_row(i)
        row = self._rows.get(i)
        if row is None:
            return float(self._diag[i]) if i == j else 0.0
        n = row.n
        position = int(np.searchsorted(row.idx[:n], j))
        if position < n and row.idx[position] == j:
            return float(row.val[position])
        return 0.0

    def set(self, i: int, j: int, value: float) -> None:
        """Store (or, for tiny values, erase) entry ``(i, j)``."""
        self._check_index(i, j)
        self._flush_row(i)
        self.mutations += 1
        row = self._rows.get(i)
        if abs(value) <= PRUNE_EPSILON:
            if row is None:
                if i == j and self._diag[i] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                    self._diag[i] = 0.0
                    self._nnz -= 1
                return
            n = row.n
            position = int(np.searchsorted(row.idx[:n], j))
            if position < n and row.idx[position] == j:
                self._remove_positions(
                    i, row, np.array([position], dtype=np.int64)
                )
            return
        if row is None:
            if i == j:
                if self._diag[i] == 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                    self._nnz += 1
                self._diag[i] = value
                return
            row = self._materialize(i)
        n = row.n
        position = int(np.searchsorted(row.idx[:n], j))
        if position < n and row.idx[position] == j:
            row.val[position] = value
            return
        self._insert_many(
            i,
            row,
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
        self._check_index(i, 0)
        self._flush_row(i)
        row = self._rows.get(i)
        if row is None:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return {i: float(diagonal)}
            return {}
        n = row.n
        return dict(zip(row.idx[:n].tolist(), row.val[:n].tolist()))

    def row_view(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i`` as ``(indices, values)`` arrays sorted by column.

        Materialized rows return *views* into the live storage — copy
        before mutating the matrix.  Implicit-diagonal rows return fresh
        one-element (or empty) arrays.
        """
        self._check_index(i, 0)
        self._flush_row(i)
        row = self._rows.get(i)
        if row is None:
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
        return row.idx[: row.n], row.val[: row.n]

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
        if j not in self._rows and self._diag[j] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
            rows.append(j)
            rows.sort()
        return rows

    # ------------------------------------------------------------------
    # Dot products
    # ------------------------------------------------------------------
    def row_dot(self, i: int, vector: Dict[int, float]) -> float:
        """Dot product of row ``i`` with a sparse (dict) vector."""
        self._check_index(i, 0)
        self._flush_row(i)
        row = self._rows.get(i)
        if row is None:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return float(diagonal * vector.get(i, 0.0))
            return 0.0
        n = row.n
        if n == 0:
            return 0.0
        count = len(vector)
        stored = row.idx[:n]
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
        return float(np.dot(row.val[:n], gathered))

    def row_dot_dense(self, i: int, dense_vector: np.ndarray) -> float:
        """Dot product of row ``i`` with a dense operand — the hot path.

        One fancy-index gather plus one BLAS dot; no per-entry Python.
        """
        pending = self._pending
        if pending is not None:
            pending.flush_row(self, i)
        row = self._rows.get(i)
        if row is None:
            diagonal = self._diag[i]
            if diagonal != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
                return float(diagonal * dense_vector[i])
            return 0.0
        n = row.n
        if n == 0:
            return 0.0
        return float(np.dot(row.val[:n], dense_vector[row.idx[:n]]))

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
        if pivot not in self._rows and self._diag[pivot] != 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel
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
        """Row ``i`` += sparse vector (``columns`` sorted, pre-scaled)."""
        row = self._rows.get(i)
        if row is None:
            row = self._materialize(i)
        n = row.n
        stored = row.idx[:n]
        positions = np.searchsorted(stored, columns)
        in_range = positions < n
        exists = np.zeros(columns.shape[0], dtype=bool)
        if n:
            exists[in_range] = stored[positions[in_range]] == columns[in_range]
        if exists.any():
            hit = positions[exists]
            row.val[hit] += deltas[exists]
            dead = hit[np.abs(row.val[hit]) <= PRUNE_EPSILON]
            if dead.shape[0]:
                self._remove_positions(i, row, dead)
                row = self._rows.get(i)
        fresh = ~exists
        if fresh.any():
            alive = np.abs(deltas[fresh]) > PRUNE_EPSILON
            new_columns = columns[fresh][alive]
            if new_columns.shape[0]:
                if row is None:
                    row = self._materialize(i)
                new_positions = np.searchsorted(
                    row.idx[: row.n], new_columns
                )
                self._insert_many(
                    i, row, new_positions, new_columns, deltas[fresh][alive]
                )
        # Single exit: every path — hit-only, fresh-insert, or the
        # boundary case where hits prune the row empty while all fresh
        # inserts are dead — runs the empty-row cleanup.  (After
        # _insert_many ``row.n > 0``, so the cleanup is a no-op there.)
        if row is not None and row.n == 0 and i in self._rows:
            del self._rows[i]  # meghlint: ignore[MEGH011] -- counter bumped by the public entry point (set/row_axpy) before delegating

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries — the Q-table size (Fig 7)."""
        self.flush_pending()
        return self._nnz

    def items(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(i, j, value)`` in (row, column) order."""
        self.flush_pending()
        implicit = np.nonzero(self._diag)[0]
        touched = sorted(set(self._rows).union(implicit.tolist()))
        for i in touched:
            row = self._rows.get(i)
            if row is None:
                yield (i, i, float(self._diag[i]))
                continue
            n = row.n
            for j, value in zip(row.idx[:n].tolist(), row.val[:n].tolist()):
                yield (i, j, value)

    def to_dense(self) -> np.ndarray:
        """Dense copy — for tests and small ablations only."""
        self.flush_pending()
        dense = np.zeros((self.dimension, self.dimension))
        implicit = np.nonzero(self._diag)[0]
        dense[implicit, implicit] = self._diag[implicit]
        for i, row in self._rows.items():
            n = row.n
            dense[i, row.idx[:n]] = row.val[:n]
        return dense

    def copy(self) -> "SparseMatrix":
        """Deep copy (pendings flushed first; the clone starts clean)."""
        self.flush_pending()
        clone = SparseMatrix(self.dimension, kernel=self._kernel_mode)
        clone._diag = self._diag.copy()
        for i, row in self._rows.items():
            duplicate = _Row(capacity=row.idx.shape[0])
            duplicate.idx[: row.n] = row.idx[: row.n]
            duplicate.val[: row.n] = row.val[: row.n]
            duplicate.n = row.n
            clone._rows[i] = duplicate
        clone._cols = {j: set(rows) for j, rows in self._cols.items()}
        clone._nnz = self._nnz
        clone.mutations = self.mutations
        return clone
