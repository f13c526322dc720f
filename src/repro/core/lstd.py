"""Least-squares temporal-difference core of Algorithm 1.

Maintains the inverse transition operator ``B = T^{-1}`` via the
Sherman–Morrison formula (Eq. 11), the reward-weighted feature sum ``z``
(line 10 of Algorithm 1), and exposes the projection vector
``theta = B z`` (line 11).  Because every feature is one-hot,
``Q(s, a) = theta[index(a)]`` and each theta entry is a single sparse
row-vector dot product — computed lazily so a step's cost is proportional
to the migrations performed, exactly the Section 5.2 claim.

Hot-path layout (see ``docs/performance.md``):

* ``q_value`` / ``q_values`` serve from a **dirty-row theta cache**.  A
  row's cached ``theta[i] = B[i,:] . z`` stays valid until an
  ``update()`` touches it; candidate re-evaluation across steps then
  costs one array read instead of a dot product.
* ``update()`` invalidates *exactly* the support of column ``a`` of the
  pre-update ``B``.  That set covers every changed quantity: the rank-1
  update rewrites only rows ``i`` with ``B[i,a] != 0``, and the
  ``z[a] += cost`` change only affects rows with a stored ``(i, a)``
  entry — which (because ``B_new[i,a] = B_old[i,a] * (1 + scale*v_a)``)
  is a subset of the same support.
* external writes (``lstd.B.set(...)``, ``lstd.z[j] = ...``) are caught
  by the :attr:`SparseMatrix.mutations` counter and a write-through
  :class:`RewardVector`, so deliberate corruption in the contract tests
  still invalidates what it must.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Union,
)

import numpy as np

from repro.core.kern import unique_sorted
from repro.core.sparse import SparseMatrix
from repro.errors import ConfigurationError

#: Denominators below this in magnitude would blow up the rank-1 update;
#: such samples are skipped (standard recursive-least-squares practice).
DENOMINATOR_FLOOR = 1e-10


def _row_entry(idx: np.ndarray, val: np.ndarray, j: int) -> float:
    """Entry at column ``j`` of a sorted sparse row view; 0 when absent."""
    n = idx.shape[0]
    position = int(np.searchsorted(idx, j))
    if position < n and idx[position] == j:
        return float(val[position])
    return 0.0


class RewardVector(MutableMapping):
    """The sparse reward-weighted feature sum ``z`` with a dense mirror.

    Behaves as a ``dict[int, float]`` (the historical representation —
    checkpointing and tests rely on the mapping protocol) while keeping
    a dense ``float64`` mirror so ``B[i,:] . z`` is one vectorized
    gather.  Every *external* write reports the touched index to the
    owning learner, which invalidates the dependent theta-cache rows;
    the learner's own update path writes through :meth:`_accumulate`.
    """

    __slots__ = ("_data", "_dense", "_on_external_write")

    def __init__(self, dimension: int, on_external_write) -> None:
        self._data: Dict[int, float] = {}
        self._dense = np.zeros(dimension, dtype=np.float64)
        self._on_external_write = on_external_write

    @property
    def dense(self) -> np.ndarray:
        """Dense mirror of ``z`` (live storage — do not mutate)."""
        return self._dense

    def _accumulate(self, key: int, cost: float) -> None:
        """Internal ``z[key] += cost`` (cache already invalidated)."""
        value = self._data.get(key, 0.0) + cost
        self._data[key] = value  # meghlint: ignore[MEGH011] -- internal accumulate: caller invalidated the dependent rows before batching
        self._dense[key] = value  # meghlint: ignore[MEGH011] -- internal accumulate: caller invalidated the dependent rows before batching

    def _discard(self, key: int) -> None:
        """Internal ``z.pop(key, None)`` (cache already invalidated)."""
        if self._data.pop(key, None) is not None:  # meghlint: ignore[MEGH011] -- internal discard: retirement invalidates the dependent rows itself
            self._dense[key] = 0.0  # meghlint: ignore[MEGH011] -- internal discard: retirement invalidates the dependent rows itself

    def keys_in(self, indices: Iterable[int]) -> Set[int]:
        """The members of ``indices`` that hold an entry."""
        return self._data.keys() & indices

    def __getitem__(self, key: int) -> float:
        return self._data[key]

    def __setitem__(self, key: int, value: float) -> None:
        self._data[key] = value
        self._dense[key] = value
        self._on_external_write(key)

    def __delitem__(self, key: int) -> None:
        del self._data[key]
        self._dense[key] = 0.0
        self._on_external_write(key)

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"RewardVector({self._data!r})"


class SparseLstd:
    """Sherman–Morrison LSTD state: ``B``, ``z`` and lazy ``theta``.

    Args:
        dimension: ``d = N x M``.
        gamma: discount factor.
        delta: ``B_0 = (1/delta) I``; the paper takes ``delta = d``.
    """

    def __init__(
        self, dimension: int, gamma: float, delta: Optional[float] = None
    ) -> None:
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        if not 0 <= gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")
        self.dimension = dimension
        self.gamma = gamma
        self.delta = float(dimension) if delta is None else float(delta)
        if self.delta <= 0:
            raise ConfigurationError("delta must be > 0")
        self._theta_cache = np.zeros(dimension, dtype=np.float64)
        self._theta_fresh = np.zeros(dimension, dtype=bool)
        # Reusable row-pair buffer for the per-update grouped flush.
        self._row_pair = np.empty(2, dtype=np.int64)
        self.theta_cache_hits = 0
        self.theta_cache_misses = 0
        self._b_mutations_seen = -1
        self.B = SparseMatrix.identity(dimension, scale=1.0 / self.delta)
        self.z = {}
        self.updates_applied = 0
        self.updates_skipped = 0
        #: Opt-in sparse record of ``T - delta I`` (see
        #: :meth:`enable_operator_tracking`): row -> {column -> value}.
        self._t_rows: Optional[Dict[int, Dict[int, float]]] = None
        #: Column index over the tracker: column -> set of tracked rows.
        self._t_cols: Dict[int, Set[int]] = {}
        #: :meth:`retire_actions` calls that retired at least one index
        #: (one per departed slot in service mode).
        self.retirements_applied = 0
        #: Rank-1 row or column clears inside :meth:`retire_actions`
        #: skipped because their denominator fell below
        #: :data:`DENOMINATOR_FLOOR` — a count of corrections, not calls.
        self.retirements_skipped = 0

    # ------------------------------------------------------------------
    # Guarded state: replacing B or z resets the theta cache
    # ------------------------------------------------------------------
    @property
    def B(self) -> SparseMatrix:
        """The incremental inverse operator."""
        return self._B

    @B.setter
    def B(self, matrix: SparseMatrix) -> None:
        self._B = matrix
        # Compiled fast path: the kernel's fused row combine (None when
        # the matrix is eager).
        backend = matrix.kernel_backend
        self._combine_rows = None if backend is None else backend.combine_rows
        self.invalidate_theta_cache()
        self._b_mutations_seen = matrix.mutations

    @property
    def z(self) -> RewardVector:
        """The reward-weighted feature sum (mapping ``index -> value``)."""
        return self._z

    @z.setter
    def z(self, mapping: Dict[int, float]) -> None:
        vector = RewardVector(self.dimension, self._on_z_external_write)
        for key, value in mapping.items():
            vector._accumulate(int(key), float(value))
        self._z = vector
        self.invalidate_theta_cache()

    def _on_z_external_write(self, key: int) -> None:
        """External ``z[key]`` write: stale rows are ``support(B e_key)``."""
        rows = self._B.rows_with_column(key)
        if rows:
            self._theta_fresh[rows] = False

    def invalidate_theta_cache(
        self, rows: Union[Iterable[int], np.ndarray, None] = None
    ) -> None:
        """Mark cached theta rows stale (all rows when ``rows`` is None)."""
        if rows is None:
            self._theta_fresh[:] = False
            return
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0]:
            self._theta_fresh[rows] = False

    def _sync_with_b(self) -> None:
        """Full-invalidate after out-of-band ``B`` mutations.

        The learner's own :meth:`update` performs targeted invalidation
        and then re-syncs the counter; anything else that mutated ``B``
        (tests corrupting entries, checkpoint restore populating a fresh
        matrix) lands here.
        """
        if self._B.mutations != self._b_mutations_seen:
            self._theta_fresh[:] = False
            self._b_mutations_seen = self._B.mutations

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def update(self, action_index: int, next_action_index: int, cost: float) -> None:
        """One Algorithm-1 iteration for an executed action.

        Implements Eq. (11) with ``u = phi_a`` and
        ``v = phi_a - gamma * phi_a'`` followed by ``z += phi_a * C``.
        With one-hot features, ``B u`` is column ``a`` of ``B`` and
        ``v^T B`` is row ``a`` minus ``gamma`` times row ``a'``.
        """
        self._check_action(action_index)
        self._check_action(next_action_index)
        a, a_next = action_index, next_action_index
        self._sync_with_b()

        # v^T B as sorted arrays: union of the two row supports, then a
        # vectorized row_a - gamma * row_next merge.  With the deferred
        # kernel on, rows a / a' are settled in ONE grouped kernel call
        # (the row views below then see clean rows and flush nothing).
        self._row_pair[0] = a
        self._row_pair[1] = a_next
        self._B.flush_rows(self._row_pair)
        combine = self._combine_rows
        if combine is not None:
            # Compiled fast path: one C call reads both rows from B's
            # slot tables and performs the sorted-union merge, the
            # ``row_a - gamma * row_next`` combine, the exact zero
            # filter, and both denominator entry lookups — bit-identical
            # to the NumPy construction below (see the C comment in
            # kern.py).
            columns, values, entry_a, entry_next = combine(
                self._B, a, a_next, self.gamma, a
            )
            normalized = True
        else:
            idx_a, val_a = self._B.row_view(a)
            idx_next, val_next = self._B.row_view(a_next)
            # Sorted-unique union of the two supports: both inputs are
            # sorted, so a stable sort of the concatenation plus an
            # adjacent-equality mask produces exactly np.union1d's output
            # without its hashing overhead (once per learning step).
            merged = np.concatenate((idx_a, idx_next))
            if merged.shape[0] > 1:
                merged.sort(kind="stable")
                keep = np.empty(merged.shape[0], dtype=bool)
                keep[0] = True
                np.not_equal(merged[1:], merged[:-1], out=keep[1:])
                columns = merged[keep]
            else:
                columns = merged
            values = np.zeros(columns.shape[0], dtype=np.float64)
            values[np.searchsorted(columns, idx_a)] = val_a
            values[np.searchsorted(columns, idx_next)] -= self.gamma * val_next
            entry_a = _row_entry(idx_a, val_a, a)
            entry_next = _row_entry(idx_next, val_next, a)
            normalized = False

        # denominator = 1 + v^T B u = 1 + (B[a,a] - gamma B[a',a]).
        # Both entries come straight from the already-settled rows — no
        # extra flush checks on the hot path.
        denominator = 1.0 + (entry_a - self.gamma * entry_next)
        if abs(denominator) < DENOMINATOR_FLOOR:
            self.updates_skipped += 1
            dirty = self._B.column_support(a)
        else:
            # The left factor B u is column a of B itself; the deferred
            # path never builds it — each touched row reads its own
            # weight B[i, a] at flush time (see kern.py).  The returned
            # rows are the pre-update support of column a (a superset
            # when epsilon prunes are staged — conservative, never
            # wrong).
            dirty = self._B.rank_one_update_from_column(
                a, columns, values,
                scale=-1.0 / denominator,
                assume_normalized=normalized,
            )
            if not dirty.shape[0]:
                # An all-zero right factor touches no row of B, but the
                # z[a] change below still reaches column a's support.
                dirty = self._B.column_support(a)
            self.updates_applied += 1
            if self._t_rows is not None:
                self._track_entry(a, a, 1.0)
                self._track_entry(a, a_next, -self.gamma)

        # Dirty rows: support of column a of the *pre-update* B.  This
        # covers both the rank-1 row rewrites and the z[a] change (and
        # degenerates to just the z effect when the update is skipped).
        if dirty.shape[0]:
            self._theta_fresh[dirty] = False
        self._z._accumulate(a, cost)
        self._b_mutations_seen = self._B.mutations

    def _check_action(self, index: int) -> None:
        if not 0 <= index < self.dimension:
            raise ConfigurationError(
                f"action index {index} out of range [0, {self.dimension})"
            )

    # ------------------------------------------------------------------
    # Operator tracking and retirement (service mode)
    # ------------------------------------------------------------------
    @property
    def operator_tracking_enabled(self) -> bool:
        """Whether the sparse ``T - delta I`` record is being maintained."""
        return self._t_rows is not None

    def enable_operator_tracking(self) -> None:
        """Start recording the forward operator's off-``delta I`` part.

        :meth:`retire_actions` needs to know which updates ever touched a
        row or column of ``T``; the batch simulator never retires, so the
        record is opt-in to keep its hot path free of bookkeeping.  Must
        be enabled before the first :meth:`update` — enabling later would
        leave the record blind to history it cannot reconstruct.
        """
        if self._t_rows is not None:
            return
        if self.updates_applied or self.updates_skipped:
            raise ConfigurationError(
                "operator tracking must be enabled before the first update"
            )
        self._t_rows = {}
        self._t_cols = {}

    def _track_entry(self, i: int, j: int, delta: float) -> None:
        """Tracker ``T[i, j] += delta`` with exact-zero pruning."""
        rows = self._t_rows
        assert rows is not None
        row = rows.setdefault(i, {})
        value = row.get(j, 0.0) + delta
        if value == 0.0:  # meghlint: ignore[MEGH003] -- gamma is dyadic in practice; exact cancellation prunes the entry
            row.pop(j, None)
            if not row:
                del rows[i]
            rows_of = self._t_cols.get(j)
            if rows_of is not None:
                rows_of.discard(i)
                if not rows_of:
                    del self._t_cols[j]
        else:
            row[j] = value
            self._t_cols.setdefault(j, set()).add(i)

    def operator_entries(self) -> List[tuple]:
        """Tracked entries as sorted ``(row, col, value)`` triplets.

        Checkpoint serialization; :meth:`load_operator_entries` inverts.
        """
        if self._t_rows is None:
            raise ConfigurationError("operator tracking is not enabled")
        triplets: List[tuple] = []
        for i in sorted(self._t_rows):
            row = self._t_rows[i]
            for j in sorted(row):
                triplets.append((i, j, row[j]))
        return triplets

    def load_operator_entries(
        self, triplets: Iterable[Sequence[float]]
    ) -> None:
        """Restore the tracker from :meth:`operator_entries` triplets."""
        rows: Dict[int, Dict[int, float]] = {}
        cols: Dict[int, Set[int]] = {}
        for triplet in triplets:
            i, j, value = int(triplet[0]), int(triplet[1]), float(triplet[2])
            self._check_action(i)
            self._check_action(j)
            if value == 0.0:  # meghlint: ignore[MEGH003] -- exact store sentinel: zeros are never stored
                continue
            rows.setdefault(i, {})[j] = value
            cols.setdefault(j, set()).add(i)
        self._t_rows = rows
        self._t_cols = cols

    def retire_actions(self, indices: Iterable[int]) -> int:
        """Remove a set of action indices from the learned operator.

        When a VM departs, its block of action indices must revert to the
        never-observed state — otherwise the operator accumulates weight
        for actions that can no longer be taken, and a slot reused by a
        new VM would inherit a stranger's history.  With ``S`` the index
        set, the target operator is ``T'`` equal to ``T`` outside ``S``
        and ``delta I`` on it; since every update contributed
        ``e_a (e_a - gamma e_{a'})^T``, the tracked record of
        ``T - delta I`` tells us exactly which rank-1 corrections undo
        the ``S`` rows and columns:

        1. **Row clears** — for each ``i`` in ``S`` with tracked row
           ``t``, ``T' = T - e_i t^T`` gives (Sherman–Morrison)
           ``B' = B + B e_i (t^T B) / (1 - t^T B e_i)``.  The left
           factor is column ``i`` of ``B``, the shape of Eq. 11, so the
           clear is staged through
           :meth:`SparseMatrix.rank_one_update_from_column` and the
           deferred kernel replays it bit for bit (the ``kern`` module's
           argument); with the kernel off the same call scatters eagerly.
        2. **Column clears** — after the row clears ``T`` reads
           ``[[delta I, 0], [C, D]]`` on ``(S, rest)``, whose inverse is
           ``[[I/delta, 0], [-D^{-1} C / delta, D^{-1}]]``.  Removing
           ``C`` leaves ``D^{-1}`` alone, so the column clears only zero
           ``S`` columns outside the ``S`` rows — which step 3 does
           anyway.  For each ``j`` in ``S`` with remaining tracked
           column entries ``w`` (all in rows outside ``S`` now), the
           clear is ``B' = B + (B w)(e_j^T B) / (1 - e_j^T B w)``.  In
           floats it is skipped exactly when row ``j`` of ``B`` holds
           nothing but its diagonal: the right factor then writes only
           column ``j``, which step 3 zeroes whatever it holds, and its
           denominator is exactly ``1``.  Later clears read ``S``
           columns only through right-factor entries, which land in
           ``S`` columns again, so the skip changes no value that
           survives the snap.  The tracker bookkeeping still runs.
           Any other column clear is applied eagerly, unchanged.
        3. **Snap** — ``T'`` is now block-diagonal with ``delta I`` on
           the ``S`` block, so ``B'``'s ``S`` rows and columns are
           exactly ``(1/delta) e_i``; :meth:`SparseMatrix.reset_indices`
           writes them, removing floating-point residue deterministically.

        ``T`` stays strictly diagonally dominant throughout
        (``gamma < 1``), so the denominators are mathematically nonzero;
        a floor guard still skips any correction whose denominator
        underflows (counted in :attr:`retirements_skipped` — the
        contracts auditor would surface any resulting drift).

        Only *learned* indices are visited.  An index is pristine when
        it has no tracked operator row or column, no ``z`` entry, and
        its ``B`` row and column are exactly ``(1/delta) e_i``; no clear
        of another index can reach a pristine row or column (the left
        factors are columns of ``B`` at tracked rows, the right factors
        rows of ``B`` at tracked columns), so the three steps are
        no-ops on it and skipping it is exact.  A slot's block is
        mostly pristine, which keeps retirement proportional to what
        the slot learned rather than to its width.  A ``range`` (a
        slot's block) is used as is, with no per-index conversion.

        ``z`` entries for ``S`` are deleted, and the theta-cache rows
        whose ``B`` row or ``B``-row-dot-``z`` may have changed are
        invalidated: the left-factor supports of the applied clears, the
        rows holding a retired column before the snap, and the learned
        retired indices.  Returns the number of indices retired.
        """
        if self._t_rows is None:
            raise ConfigurationError(
                "retire_actions requires operator tracking; call "
                "enable_operator_tracking() before the first update"
            )
        block: Sequence[int]
        if isinstance(indices, range):
            block = indices if indices.step > 0 else indices[::-1]
        else:
            block = sorted({int(i) for i in indices})
        if not block:
            return 0
        if block[0] < 0 or block[-1] >= self.dimension:
            for i in block:
                self._check_action(i)
        self._sync_with_b()
        B = self._B
        t_rows, t_cols = self._t_rows, self._t_cols
        inverse_delta = 1.0 / self.delta
        learned = sorted(
            (t_rows.keys() & block)
            | (t_cols.keys() & block)
            | self._z.keys_in(block)
            | B.non_diagonal_indices(block, inverse_delta)
        )
        if not learned:
            self.retirements_applied += 1
            return len(block)
        dirty: List[np.ndarray] = [np.array(learned, dtype=np.int64)]

        # (1) row clears, staged.
        for i in learned:
            trow = t_rows.get(i)
            if trow:
                denominator = 1.0
                vtb: Dict[int, float] = {}
                for j in sorted(trow):
                    weight = trow[j]
                    row_idx, row_val = B.row_view(j)
                    denominator -= weight * _row_entry(row_idx, row_val, i)
                    for column, value in zip(
                        row_idx.tolist(), row_val.tolist()
                    ):
                        vtb[column] = vtb.get(column, 0.0) + weight * value
                if abs(denominator) < DENOMINATOR_FLOOR:
                    self.retirements_skipped += 1
                else:
                    count = len(vtb)
                    dirty.append(
                        B.rank_one_update_from_column(
                            i,
                            np.fromiter(vtb.keys(), np.int64, count),
                            np.fromiter(vtb.values(), np.float64, count),
                            scale=1.0 / denominator,
                        )
                    )
            if trow is not None:
                for j in list(trow):
                    rows_of = t_cols.get(j)
                    if rows_of is not None:
                        rows_of.discard(i)
                        if not rows_of:
                            del t_cols[j]
                del t_rows[i]

        # (2) column clears.  Row clears removed every tracked row in S,
        # so the remaining entries of a retired column all live in rows
        # that survive — exactly the coupling left to undo.
        for j in learned:
            rows_of = t_cols.get(j)
            if not rows_of:
                t_cols.pop(j, None)
                continue
            entries = [(r, t_rows[r][j]) for r in sorted(rows_of)]
            row_idx, _ = B.row_view(j)
            if row_idx.shape[0] != 1 or row_idx[0] != j:
                bw: Dict[int, float] = {}
                denominator = 1.0
                for r, weight in entries:
                    denominator -= weight * B.get(j, r)
                    for row_index, value in B.column(r).items():
                        bw[row_index] = bw.get(row_index, 0.0) + weight * value
                row_j = B.row(j)
                if abs(denominator) < DENOMINATOR_FLOOR:
                    self.retirements_skipped += 1
                else:
                    B.rank_one_update(bw, row_j, scale=1.0 / denominator)
                    dirty.append(np.fromiter(bw, np.int64, len(bw)))
            for r, _ in entries:
                remaining = t_rows[r]
                del remaining[j]
                if not remaining:
                    del t_rows[r]
            del t_cols[j]

        # (3) snap the learned part of the S block of B to (1/delta) I.
        dirty.append(B.reset_indices(learned, inverse_delta))

        for i in learned:
            self._z._discard(i)
        self._theta_fresh[np.concatenate(dirty)] = False
        self._b_mutations_seen = B.mutations
        self.retirements_applied += 1
        return len(block)

    # ------------------------------------------------------------------
    # Q evaluation (cached)
    # ------------------------------------------------------------------
    def q_value(self, action_index: int) -> float:
        """``Q(s, a) = theta[a] = (B z)[a]`` — cached sparse dot product."""
        self._check_action(action_index)
        self._sync_with_b()
        if self._theta_fresh[action_index]:
            self.theta_cache_hits += 1
            return float(self._theta_cache[action_index])
        value = self._B.row_dot_dense(action_index, self._z.dense)
        self._theta_cache[action_index] = value
        self._theta_fresh[action_index] = True
        self.theta_cache_misses += 1
        return value

    def q_values(
        self, indices: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Batched :meth:`q_value` for a set of action indices.

        Stale rows are recomputed once each (in ascending index order —
        the values are independent, so order only matters for
        determinism of the cache-counter bookkeeping); the result is one
        fancy-index gather from the cache.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        if index_array.ndim != 1:
            raise ConfigurationError("q_values expects a 1-D index sequence")
        if index_array.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        low = int(index_array.min())
        high = int(index_array.max())
        if low < 0 or high >= self.dimension:
            raise ConfigurationError(
                f"action index out of range [0, {self.dimension}): "
                f"batch spans [{low}, {high}]"
            )
        self._sync_with_b()
        stale = unique_sorted(
            index_array[~self._theta_fresh[index_array]]
        )
        if stale.shape[0]:
            # One grouped kernel call instead of a per-row flush inside
            # each dot product (flush order never changes values).
            self._B.flush_rows(stale)
        dense_z = self._z.dense
        for i in stale.tolist():
            self._theta_cache[i] = self._B.row_dot_dense(i, dense_z)
        if stale.shape[0]:
            self._theta_fresh[stale] = True
        self.theta_cache_misses += int(stale.shape[0])
        self.theta_cache_hits += int(index_array.shape[0] - stale.shape[0])
        return self._theta_cache[index_array].copy()

    def theta(self) -> np.ndarray:
        """Dense ``theta = B z`` (for analysis / tests).

        Only rows whose support intersects the ``z`` support can be
        nonzero, so the scan walks ``union_j support(B e_j)`` for
        ``j in z`` via the column index instead of all ``d`` rows —
        bit-identical to the historical full loop for finite ``B``
        (non-finite ``B`` entries are audited separately by the
        contracts layer).
        """
        self._sync_with_b()
        theta = np.zeros(self.dimension)
        candidate_rows: set = set()
        for j in self._z:
            candidate_rows.update(self._B.rows_with_column(j))
        for i in sorted(candidate_rows):
            theta[i] = self.q_value(i)
        return theta

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def verify_theta_cache(self) -> List[int]:
        """Rows whose cached theta disagrees with a fresh dot product.

        Exact (bitwise) comparison; two NaNs count as agreeing.  An
        empty list means the dirty-row invalidation invariant holds for
        every currently-fresh row.  Used by the contracts auditor.
        """
        self._sync_with_b()
        dense_z = self._z.dense
        inconsistent: List[int] = []
        for i in np.nonzero(self._theta_fresh)[0].tolist():
            expected = self._B.row_dot_dense(i, dense_z)
            cached = float(self._theta_cache[i])
            if cached != expected and not (
                math.isnan(cached) and math.isnan(expected)
            ):
                inconsistent.append(i)
        return inconsistent

    @property
    def q_table_nonzeros(self) -> int:
        """Stored non-zeros of ``B`` — the Figure-7 quantity."""
        return self.B.nnz
