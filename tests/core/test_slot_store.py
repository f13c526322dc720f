"""Tests for ``SparseMatrix``'s slot-table store under both backends.

One random stream of staged rank-1 updates, row and batch reads, eager
writes, rows outgrowing their capacity, pool compactions,
``reset_indices`` and ``to_dict``/``from_dict`` round trips drives the
C kernel and the eager path side by side; the observable store must be
bit-equal after every step.  A tiny initial pool and slot table force
relocations and compactions, and the kernel's counters must not depend
on that layout.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import kern, sparse
from repro.core.sparse import SparseMatrix

_HAS_COMPILER = kern._find_compiler() is not None

#: Kernel counters that describe the replay, not the store layout.
_REPLAY_COUNTS = (
    "pending_count",
    "enqueued",
    "row_flushes",
    "full_flushes",
    "applied",
    "skipped",
)

#: Dyadic values: cancellations land on exact zeros and drive prunes.
_DYADIC = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


@contextmanager
def _tiny_tables():
    """Build matrices with a one-slot table and a four-entry pool."""
    saved = sparse._INITIAL_SLOTS, sparse._INITIAL_POOL
    sparse._INITIAL_SLOTS, sparse._INITIAL_POOL = 1, 4
    try:
        yield
    finally:
        sparse._INITIAL_SLOTS, sparse._INITIAL_POOL = saved


def _observe(matrix):
    """Everything a caller can see of the store, in comparable form."""
    items = [
        (i, j, np.float64(value).tobytes()) for i, j, value in matrix.items()
    ]
    columns = [matrix.rows_with_column(j) for j in range(matrix.dimension)]
    return items, matrix.nnz, columns


_ops = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(0, 11),
        st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
        st.lists(st.sampled_from(_DYADIC), min_size=12, max_size=12),
        st.sampled_from(_DYADIC),
    ),
    st.tuples(st.just("read"), st.integers(0, 11)),
    st.tuples(
        st.just("batch"),
        st.lists(st.integers(0, 11), min_size=1, max_size=8),
    ),
    st.tuples(
        st.just("set"),
        st.integers(0, 11),
        st.integers(0, 11),
        st.sampled_from(_DYADIC + (0.0,)),
    ),
    st.tuples(
        st.just("reset"),
        st.lists(st.integers(0, 11), min_size=1, max_size=3, unique=True),
    ),
    st.tuples(st.just("roundtrip")),
)


def _apply(matrix, op):
    """Run one stream operation; returns the (possibly new) matrix."""
    kind = op[0]
    if kind == "update":
        _, pivot, columns, values, scale = op
        matrix.rank_one_update_from_column(
            pivot,
            np.array(columns, dtype=np.int64),
            np.array(values[: len(columns)], dtype=np.float64),
            scale,
        )
    elif kind == "read":
        matrix.row_view(op[1])
    elif kind == "batch":
        matrix.flush_rows(np.array(op[1], dtype=np.int64))
    elif kind == "set":
        matrix.set(op[1], op[2], op[3])
    elif kind == "reset":
        matrix.reset_indices(op[1], 1.0)
    else:
        with _tiny_tables():
            matrix = SparseMatrix.from_dict(
                matrix.to_dict(), kernel=matrix._kernel_mode
            )
    return matrix


@pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
class TestStoreProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(_ops, min_size=1, max_size=40))
    def test_kernel_and_eager_stores_agree_step_by_step(self, stream):
        with _tiny_tables():
            eager = SparseMatrix.identity(12, scale=1.0, kernel="off")
            tiny = SparseMatrix.identity(12, scale=1.0, kernel="c")
        roomy = SparseMatrix.identity(12, scale=1.0, kernel="c")
        # Observing flushes the whole window; this one is read only at
        # the end, so its flushes stay as lazy as the stream makes them.
        lazy = SparseMatrix.identity(12, scale=1.0, kernel="c")
        for op in stream:
            eager = _apply(eager, op)
            tiny = _apply(tiny, op)
            roomy = _apply(roomy, op)
            lazy = _apply(lazy, op)
            expected = _observe(eager)
            assert _observe(tiny) == expected, op
            assert _observe(roomy) == expected, op
            tiny_stats, roomy_stats = tiny.kernel_stats(), roomy.kernel_stats()
            for name in _REPLAY_COUNTS:
                assert tiny_stats[name] == roomy_stats[name], name
        assert _observe(lazy) == _observe(eager)


@pytest.mark.parametrize(
    "mode", ["off"] + (["c"] if _HAS_COMPILER else [])
)
class TestLayoutCounters:
    def test_growth_relocates_and_a_full_pool_compacts(self, mode):
        with _tiny_tables():
            matrix = SparseMatrix.identity(16, scale=1.0, kernel=mode)
        for row in range(4):
            for column in range(16):
                matrix.rank_one_update_from_column(
                    row,
                    np.array([column], dtype=np.int64),
                    np.array([0.5], dtype=np.float64),
                    1.0,
                )
                matrix.row_view(row)  # flush: the row grows one by one
        stats = matrix.kernel_stats()
        assert stats["relocations"] > 0
        assert stats["compactions"] > 0
        dense = matrix.to_dense()
        assert np.count_nonzero(dense[:4]) == 64
        assert matrix.nnz == 64 + 12

    def test_round_trip_keeps_the_implicit_split(self, mode):
        matrix = SparseMatrix.identity(8, scale=0.5, kernel=mode)
        matrix.set(2, 5, 1.5)
        matrix.set(6, 6, 3.0)
        matrix.set(7, 1, 0.25)
        matrix.set(7, 1, 0.0)  # row 7 materialized but holds only (7, 7)
        clone = SparseMatrix.from_dict(matrix.to_dict(), kernel=mode)
        assert list(clone.items()) == list(matrix.items())
        # A restore materializes only rows with an off-diagonal entry: a
        # row holding only its diagonal comes back implicit, row 2 stays
        # stored.
        assert clone.non_diagonal_indices(range(8), 0.5) == {2, 5, 6}
        assert clone.rows_with_column(5) == [2, 5]

    def test_unsorted_triplets_match_entry_by_entry_writes(self, mode):
        data = {
            "dimension": 6,
            "rows": np.array([3, 1, 2, 3, 1, 2], dtype=np.int64),
            "cols": np.array([0, 4, 5, 0, 1, 5], dtype=np.int64),
            "values": np.array([2.0, 1.0, 1.5, -1.0, 1e-20, 0.0]),
        }
        matrix = SparseMatrix.from_dict(data, kernel=mode)
        reference = SparseMatrix(6, kernel=mode)
        for i, j, value in zip(data["rows"], data["cols"], data["values"]):
            reference.set(int(i), int(j), float(value))
        assert _observe(matrix) == _observe(reference)
        assert list(matrix.items()) == [(1, 4, 1.0), (3, 0, -1.0)]


@pytest.mark.parametrize(
    "mode", ["off"] + (["c"] if _HAS_COMPILER else [])
)
class TestNonFinitePruneRule:
    """Drop iff ``|v| <= PRUNE_EPSILON``: a NaN survives under both
    backends, for an entry hit by an update and for a fresh insert."""

    def test_nan_holder_survives_a_staged_column_clear(self, mode):
        matrix = SparseMatrix.identity(4, scale=1.0, kernel=mode)
        matrix.set(1, 0, math.nan)
        matrix.rank_one_update_from_column(
            0,
            np.array([0], dtype=np.int64),
            np.array([-1.0]),
            1.0,
            assume_normalized=True,
        )
        items = list(matrix.items())
        assert [(i, j) for i, j, _ in items] == [(1, 0), (1, 1), (2, 2), (3, 3)]
        assert math.isnan(items[0][2])
        assert matrix.nnz == 4
        assert matrix.rows_with_column(0) == [1]

    def test_nan_fresh_insert_is_kept(self, mode):
        matrix = SparseMatrix.identity(4, scale=1.0, kernel=mode)
        matrix.set(1, 0, math.nan)
        matrix.rank_one_update_from_column(
            0, np.array([3], dtype=np.int64), np.array([1.0]), 1.0
        )
        assert math.isnan(matrix.get(1, 3))
        assert matrix.get(0, 3) == 1.0
        assert matrix.rows_with_column(3) == [0, 1, 3]


@pytest.mark.skipif(not _HAS_COMPILER, reason="no C compiler on PATH")
def test_nan_case_is_identical_across_backends():
    observed = []
    for mode in ("c", "off"):
        matrix = SparseMatrix.identity(4, scale=1.0, kernel=mode)
        matrix.set(1, 0, math.nan)
        matrix.rank_one_update_from_column(
            0,
            np.array([0], dtype=np.int64),
            np.array([-1.0]),
            1.0,
            assume_normalized=True,
        )
        observed.append(_observe(matrix))
    assert observed[0] == observed[1]
