"""Tests for meghkern — the deferred rank-k Sherman–Morrison engine.

Covers backend selection (``REPRO_KERNEL``), the compiled-kernel cache,
staging semantics, C ≡ eager bit-identity, the compiled row-combine
helper, and a randomized differential oracle against a dense NumPy
replica of the eager scatter.  Modes are compared by *matrix state*
(bit equality), never by internal counters.
"""

import hashlib
import os
import subprocess

import numpy as np
import pytest

from repro.core import kern
from repro.core.kern import KernelUnavailableError, PendingUpdates
from repro.core.lstd import _row_entry
from repro.core.sparse import PRUNE_EPSILON, SparseMatrix
from repro.errors import ConfigurationError

_HAS_COMPILER = kern._find_compiler() is not None

#: Every backend mode runnable in this environment.
KERNELS = ["off"] + (["c"] if _HAS_COMPILER else [])
#: Deferred backends only (staging semantics tests).
DEFERRED = [mode for mode in KERNELS if mode != "off"]


def _cache_digest() -> str:
    """The source+flags hash naming the compiled-kernel cache entries."""
    key = kern._C_SOURCE + " ".join(kern._CFLAGS)
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def dense_of(matrix: SparseMatrix) -> np.ndarray:
    """Flush and densify — the bit-exact comparison form."""
    matrix.flush_pending()
    out = np.zeros((matrix.dimension, matrix.dimension))
    for i, j, value in matrix.items():
        out[i, j] = value
    return out


def oracle_apply(
    dense: np.ndarray,
    pivot: int,
    columns: np.ndarray,
    values: np.ndarray,
    scale: float,
) -> None:
    """Dense replica of the eager scatter, float-op for float-op.

    Weights are the *pre-update* column (snapshot first), each touched
    row adds ``(scale * w) * values`` with the same association as
    ``_scatter_add``, and entries at or below the prune epsilon become
    exact zeros — so a correct kernel matches bit for bit.
    """
    weights = dense[:, pivot].copy()
    for i in np.nonzero(weights)[0]:
        d = scale * float(weights[i])
        block = dense[i, columns] + d * values
        block[np.abs(block) <= PRUNE_EPSILON] = 0.0
        dense[i, columns] = block


def random_update(rng, dimension):
    """A normalized (sorted-unique, zero-free) random rank-1 right factor."""
    count = int(rng.integers(1, 6))
    columns = np.sort(
        rng.choice(dimension, size=count, replace=False)
    ).astype(np.int64)
    values = rng.normal(0.0, 1.0, size=count)
    scale = float(rng.normal(0.0, 1.0)) or 1.0
    return columns, values, scale


class TestBackendSelection:
    def test_resolve_mode_default_and_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kern.resolve_mode() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", " C ")
        assert kern.resolve_mode() == "c"
        for raw in ("numpy", "bogus"):
            monkeypatch.setenv("REPRO_KERNEL", raw)
            with pytest.raises(ConfigurationError) as error:
                kern.resolve_mode()
            for mode in ("auto", "c", "off"):
                assert repr(mode) in str(error.value)

    def test_off_mode_is_eager(self):
        matrix = SparseMatrix(4, kernel="off")
        assert matrix.kernel_name == "off"
        assert matrix.kernel_backend is None

    @pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
    def test_c_mode_compiles(self):
        matrix = SparseMatrix(4, kernel="c")
        assert matrix.kernel_name == "c"

    def test_c_mode_without_compiler_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path / "nothing-here"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        with pytest.raises(KernelUnavailableError):
            SparseMatrix(4, kernel="c")

    def test_auto_mode_falls_back_to_eager(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path / "nothing-here"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        matrix = SparseMatrix(4, kernel="auto")
        assert matrix.kernel_name == "off"
        assert matrix.kernel_backend is None

    @pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
    def test_cold_build_survives_a_concurrent_source_rewrite(
        self, monkeypatch, tmp_path
    ):
        # A second cold builder rewrites the shared ``megh_kern_<digest>.c``
        # while this one compiles; simulate it by truncating that file
        # right before every compiler invocation.
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
        digest = _cache_digest()
        shared_source = cache / f"megh_kern_{digest}.c"
        real_run = subprocess.run

        def truncating_run(*args, **kwargs):
            shared_source.write_text("", encoding="utf-8")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(kern.subprocess, "run", truncating_run)
        matrix = SparseMatrix(4, kernel="c")
        assert matrix.kernel_name == "c"
        # Only the finished source and library remain; no staging files.
        assert sorted(os.listdir(cache)) == [
            f"megh_kern_{digest}.c", f"megh_kern_{digest}.so"
        ]
        assert shared_source.read_text(encoding="utf-8") == kern._C_SOURCE

    @pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
    def test_cached_library_without_symbols_is_unavailable(
        self, monkeypatch, tmp_path
    ):
        # A cache entry built from a clobbered source loads but lacks the
        # kernel's symbols: ``c`` must say so, ``auto`` must go eager.
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
        digest = _cache_digest()
        empty = tmp_path / "empty.c"
        empty.write_text("", encoding="utf-8")
        subprocess.run(
            [kern._find_compiler(), "-shared", "-fPIC", "-o",
             str(cache / f"megh_kern_{digest}.so"), str(empty)],
            check=True,
        )
        with pytest.raises(KernelUnavailableError):
            SparseMatrix(4, kernel="c")
        assert SparseMatrix(4, kernel="auto").kernel_name == "off"


class TestStagingSemantics:
    @pytest.mark.parametrize("mode", DEFERRED)
    def test_enqueue_defers_and_read_flushes(self, mode):
        matrix = SparseMatrix.identity(8, scale=1.0, kernel=mode)
        pending = matrix._pending
        columns = np.array([3], dtype=np.int64)
        values = np.array([2.0])
        matrix.rank_one_update_from_column(0, columns, values, scale=1.0)
        assert pending.pending_count == 1
        assert pending.is_dirty(0)
        # Read-through resolution: the row read settles exactly row 0.
        assert matrix.get(0, 3) == 2.0
        assert not pending.is_dirty(0)

    @pytest.mark.parametrize("mode", DEFERRED)
    def test_flush_preserves_matrix_mutations(self, mode):
        matrix = SparseMatrix.identity(8, scale=1.0, kernel=mode)
        columns = np.array([3], dtype=np.int64)
        matrix.rank_one_update_from_column(0, columns, np.array([2.0]), 1.0)
        seen = matrix.mutations
        matrix.flush_pending()
        # Representation-preserving: the logical value did not change.
        assert matrix.mutations == seen
        # Each rank-1 bumps the matrix counter exactly once (at stage).
        matrix.rank_one_update_from_column(0, columns, np.array([1.0]), 1.0)
        assert matrix.mutations == seen + 1

    @pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
    def test_window_triggers_full_flush(self, monkeypatch):
        monkeypatch.setattr(kern, "DEFAULT_WINDOW", 3)
        matrix = SparseMatrix.identity(8, scale=1.0, kernel="c")
        pending = matrix._pending
        columns = np.array([4], dtype=np.int64)
        for k in range(3):
            matrix.rank_one_update_from_column(
                k, columns, np.array([1.0]), 1.0
            )
        assert pending.pending_count == 3
        # The fourth stage retires the full window first.
        matrix.rank_one_update_from_column(3, columns, np.array([1.0]), 1.0)
        assert pending.pending_count == 1
        assert pending.full_flushes == 1

    @pytest.mark.parametrize("mode", DEFERRED)
    def test_staged_only_reachable_rows_apply(self, mode):
        # Column 3 has NO stored support when the second update stages:
        # its only future entry comes from the still-staged first update.
        # The engine must stage it anyway and the replay must apply it.
        matrix = SparseMatrix(8, kernel=mode)
        matrix.set(0, 0, 1.0)
        matrix.rank_one_update_from_column(
            0, np.array([3], dtype=np.int64), np.array([1.0]), 1.0
        )
        matrix.rank_one_update_from_column(
            3, np.array([5], dtype=np.int64), np.array([1.0]), 1.0
        )
        assert matrix.get(0, 3) == 1.0
        assert matrix.get(0, 5) == 1.0

    @pytest.mark.parametrize("mode", DEFERRED)
    def test_window_boundary_support_is_settled(self, mode, monkeypatch):
        # Regression for the pre-flush ordering: when staging the third
        # update forces the window flush, the support read afterwards
        # must see the *settled* image (rows that gained a pivot entry
        # during that flush are clean again and must be re-marked).
        monkeypatch.setattr(kern, "DEFAULT_WINDOW", 2)
        matrix = SparseMatrix(8, kernel=mode)
        matrix.set(0, 0, 1.0)
        matrix.rank_one_update_from_column(
            0, np.array([3], dtype=np.int64), np.array([1.0]), 1.0
        )
        matrix.rank_one_update_from_column(
            0, np.array([4], dtype=np.int64), np.array([1.0]), 1.0
        )
        matrix.rank_one_update_from_column(
            3, np.array([5], dtype=np.int64), np.array([2.0]), 1.0
        )
        assert matrix.get(0, 5) == 2.0

    @pytest.mark.parametrize("mode", DEFERRED)
    def test_flush_rows_batch_matches_per_row(self, mode):
        rng = np.random.default_rng(11)
        streams = []
        for _ in range(2):
            matrix = SparseMatrix.identity(12, scale=1.0, kernel=mode)
            stream_rng = np.random.default_rng(99)
            for _ in range(40):
                pivot = int(stream_rng.integers(0, 12))
                columns, values, scale = random_update(stream_rng, 12)
                matrix.rank_one_update_from_column(
                    pivot, columns, values, scale
                )
            streams.append(matrix)
        batched, per_row = streams
        # Batched: duplicates included and > 4 rows (the grouped C path).
        batched.flush_rows(np.array([0, 1, 2, 3, 4, 5, 5, 0], dtype=np.int64))
        for i in (0, 1, 2, 3, 4, 5):
            per_row.row_view(i)
        assert np.array_equal(dense_of(batched), dense_of(per_row))

    def test_pending_updates_rejects_bad_config(self):
        backend = object()  # validation runs before the backend is used
        with pytest.raises(ConfigurationError):
            PendingUpdates(backend, dimension=0)
        with pytest.raises(ConfigurationError):
            PendingUpdates(backend, dimension=4, window=0)


class TestBackendParity:
    def test_backends_bit_identical(self):
        """Same stream + same forced flushes -> byte-equal matrices."""
        dimension = 24
        matrices = {
            mode: SparseMatrix.identity(dimension, scale=1.0, kernel=mode)
            for mode in KERNELS
        }
        rng = np.random.default_rng(5)
        for step in range(300):
            pivot = int(rng.integers(0, dimension))
            columns, values, scale = random_update(rng, dimension)
            probe = int(rng.integers(0, dimension))
            batch = rng.integers(0, dimension, size=6).astype(np.int64)
            for matrix in matrices.values():
                matrix.rank_one_update_from_column(
                    pivot, columns.copy(), values.copy(), scale
                )
                if step % 7 == 0:
                    matrix.row_view(probe)
                if step % 13 == 0:
                    matrix.flush_rows(batch)
        reference_mode, *other_modes = KERNELS
        reference = dense_of(matrices[reference_mode])
        for mode in other_modes:
            assert np.array_equal(reference, dense_of(matrices[mode])), mode
        for matrix in matrices.values():
            assert matrix.nnz == int(np.count_nonzero(reference))


class TestDifferentialOracle:
    @pytest.mark.parametrize("mode", KERNELS)
    def test_random_stream_matches_dense_oracle(self, mode):
        dimension = 32
        matrix = SparseMatrix.identity(dimension, scale=0.5, kernel=mode)
        oracle = np.zeros((dimension, dimension))
        np.fill_diagonal(oracle, 0.5)
        rng = np.random.default_rng(17)
        for step in range(250):
            pivot = int(rng.integers(0, dimension))
            columns, values, scale = random_update(rng, dimension)
            matrix.rank_one_update_from_column(pivot, columns, values, scale)
            oracle_apply(oracle, pivot, columns, values, scale)
            if step % 5 == 0:
                matrix.row_view(int(rng.integers(0, dimension)))
            if step % 11 == 0:
                matrix.flush_rows(
                    rng.integers(0, dimension, size=8).astype(np.int64)
                )
        assert np.array_equal(dense_of(matrix), oracle)
        assert matrix.nnz == int(np.count_nonzero(oracle))

    @pytest.mark.parametrize("mode", KERNELS)
    def test_dyadic_stream_forces_exact_prunes(self, mode):
        """Power-of-two data makes cancellations land on exact zeros,
        driving the prune/remove paths through every backend."""
        dimension = 16
        matrix = SparseMatrix.identity(dimension, scale=1.0, kernel=mode)
        oracle = np.eye(dimension)
        rng = np.random.default_rng(23)
        choices = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        for step in range(200):
            pivot = int(rng.integers(0, dimension))
            count = int(rng.integers(1, 5))
            columns = np.sort(
                rng.choice(dimension, size=count, replace=False)
            ).astype(np.int64)
            values = rng.choice(choices, size=count)
            scale = float(rng.choice(choices))
            matrix.rank_one_update_from_column(pivot, columns, values, scale)
            oracle_apply(oracle, pivot, columns, values, scale)
            if step % 3 == 0:
                matrix.row_view(int(rng.integers(0, dimension)))
        assert np.array_equal(dense_of(matrix), oracle)
        assert matrix.nnz == int(np.count_nonzero(oracle))


@pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
class TestCombineRows:
    def test_matches_numpy_construction(self):
        matrix = SparseMatrix(16, kernel="c")
        rng = np.random.default_rng(3)
        for j in sorted(rng.choice(16, size=7, replace=False).tolist()):
            matrix.set(2, int(j), float(rng.normal()))
        for j in sorted(rng.choice(16, size=5, replace=False).tolist()):
            matrix.set(9, int(j), float(rng.normal()))
        gamma = 0.5
        pivot = int(matrix.row_view(2)[0][0])
        idx_a, val_a = matrix.row_view(2)
        idx_b, val_b = matrix.row_view(9)
        backend = matrix.kernel_backend
        columns, values, entry_a, entry_b = backend.combine_rows(
            matrix._row_raw(2), matrix._row_raw(9), gamma, pivot
        )
        # NumPy replica (the fallback path in SparseLstd.update).
        merged = np.concatenate((idx_a, idx_b))
        merged.sort(kind="stable")
        keep = np.empty(merged.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        expected_columns = merged[keep]
        expected_values = np.zeros(expected_columns.shape[0])
        expected_values[np.searchsorted(expected_columns, idx_a)] = val_a
        expected_values[
            np.searchsorted(expected_columns, idx_b)
        ] -= gamma * val_b
        nonzero = expected_values != 0.0
        assert np.array_equal(columns, expected_columns[nonzero])
        assert np.array_equal(values, expected_values[nonzero])
        assert entry_a == _row_entry(idx_a, val_a, pivot)
        assert entry_b == _row_entry(idx_b, val_b, pivot)

    def test_empty_and_disjoint_rows(self):
        matrix = SparseMatrix(8, kernel="c")
        matrix.set(0, 1, 2.0)
        matrix.set(0, 4, -1.0)
        matrix.set(5, 2, 8.0)
        backend = matrix.kernel_backend
        columns, values, entry_a, entry_b = backend.combine_rows(
            matrix._row_raw(0), matrix._row_raw(5), 0.5, 1
        )
        assert columns.tolist() == [1, 2, 4]
        assert values.tolist() == [2.0, 0.5 * -8.0, -1.0]
        assert entry_a == 2.0
        assert entry_b == 0.0

    def test_exact_cancellation_is_dropped(self):
        # Shared column where row_a - gamma * row_next is exactly zero:
        # the combine drops it, matching the staging zero filter.
        matrix = SparseMatrix(8, kernel="c")
        matrix.set(0, 3, 1.0)
        matrix.set(5, 3, 2.0)
        backend = matrix.kernel_backend
        columns, values, _, _ = backend.combine_rows(
            matrix._row_raw(0), matrix._row_raw(5), 0.5, 0
        )
        assert columns.shape[0] == 0
        assert values.shape[0] == 0


class TestRowDotBitEquality:
    def test_row_dot_matches_transparent_gather(self):
        matrix = SparseMatrix(16, kernel="off")
        rng = np.random.default_rng(29)
        for j in (1, 4, 7, 11, 15):
            matrix.set(3, j, float(rng.normal()))
        vector = {11: 0.25, 4: -1.5, 2: 3.0, 15: float(rng.normal())}
        idx, val = matrix.row_view(3)
        gathered = np.array([vector.get(int(j), 0.0) for j in idx])
        expected = float(np.dot(val, gathered))
        assert matrix.row_dot(3, vector) == expected

    def test_row_dot_matches_dense_dot_bitwise(self):
        dimension = 32
        matrix = SparseMatrix(dimension, kernel="off")
        rng = np.random.default_rng(31)
        for j in sorted(rng.choice(dimension, size=9, replace=False).tolist()):
            matrix.set(5, int(j), float(rng.normal()))
        dense = rng.normal(0.0, 1.0, size=dimension)
        sparse_vector = {int(j): float(dense[j]) for j in range(dimension)}
        assert matrix.row_dot(5, sparse_vector) == matrix.row_dot_dense(
            5, dense
        )

    def test_row_dot_empty_cases(self):
        matrix = SparseMatrix(4, kernel="off")
        assert matrix.row_dot(0, {1: 5.0}) == 0.0
        matrix.set(2, 2, 3.0)
        assert matrix.row_dot(2, {}) == 0.0


class TestScatterAddPruneBoundary:
    """Exact-epsilon regression tests for the eager scatter.

    ``2*eps - eps == eps`` is exact (Sterbenz), so these land the
    post-update magnitude exactly *on* the prune threshold — the
    ``<= PRUNE_EPSILON`` boundary must prune, one ulp above must not.
    """

    def test_hit_landing_on_epsilon_is_pruned(self):
        matrix = SparseMatrix(6, kernel="off")
        matrix.set(0, 3, 2 * PRUNE_EPSILON)
        matrix.rank_one_update({0: 1.0}, {3: -1.0}, scale=PRUNE_EPSILON)
        assert matrix.get(0, 3) == 0.0
        assert matrix.nnz == 0
        assert matrix.rows_with_column(3) == []

    def test_hit_above_epsilon_survives(self):
        matrix = SparseMatrix(6, kernel="off")
        matrix.set(0, 3, 2 * PRUNE_EPSILON)
        matrix.rank_one_update({0: 1.0}, {3: -0.5}, scale=PRUNE_EPSILON)
        assert matrix.get(0, 3) == 1.5 * PRUNE_EPSILON
        assert matrix.nnz == 1

    def test_fresh_insert_at_epsilon_is_dropped(self):
        matrix = SparseMatrix(6, kernel="off")
        matrix.rank_one_update({1: 1.0}, {4: 1.0}, scale=PRUNE_EPSILON)
        assert matrix.get(1, 4) == 0.0
        assert matrix.nnz == 0

    def test_row_pruned_empty_with_dead_inserts_cleans_up(self):
        # The single-exit path: the only live entry prunes to the
        # threshold while every fresh insert is dead — the row must be
        # fully cleaned up (storage, nnz, column index).
        matrix = SparseMatrix(6, kernel="off")
        matrix.set(2, 1, 2 * PRUNE_EPSILON)
        matrix.rank_one_update(
            {2: 1.0}, {1: -1.0, 5: 1.0}, scale=PRUNE_EPSILON
        )
        assert matrix.get(2, 1) == 0.0
        assert matrix.get(2, 5) == 0.0
        assert matrix.nnz == 0
        assert matrix.rows_with_column(1) == []
        assert matrix.rows_with_column(5) == []
