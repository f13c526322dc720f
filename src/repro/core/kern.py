"""meghkern — deferred rank-k Sherman–Morrison flush engine (ROADMAP item 1).

The eager :meth:`repro.core.sparse.SparseMatrix.rank_one_update` pays one
Python/NumPy round-trip per *touched row* per rank-1 update — dozens of
calls per Megh learning step at paper scale — plus a full ``column(a)``
dict build to obtain the left factor.  This module removes both costs by
*deferring* the float work:

* :class:`PendingUpdates` stages up to ``window`` rank-1 outer products.
  Enqueue stores the pre-sorted right-factor arrays and marks the
  touched rows dirty in one vectorized scatter; **no float is
  scattered** and no per-row Python loop runs.
* Reads flush **exactly the rows they touch** (read-through resolution,
  wired up in ``SparseMatrix``).  A row flush replays the staged updates
  *in original submission order* from the row's watermark (the staged
  rank at its last flush, one byte a row in
  :attr:`PendingUpdates._watermark`), reading each update's left-factor
  weight from the row's own current state.
* A grouped flush kernel applies all of a dirty row's pending deltas in
  one pass: a small C kernel compiled on demand with the system compiler
  and loaded through :mod:`ctypes` (:class:`CKernel`).

Storage: the kernel works directly on the owning matrix's flat slot
tables (see the ``sparse`` module docstring).  One ``int64`` block per
matrix (layout :data:`S_DIAG` .. :data:`S_COMPACTIONS`, mirrored by the
C ``S_*`` enum) carries the table pointers, the pool and slot bump
allocators and the layout counters.  For each flushed row the kernel
replays into scratch, then installs the result itself: in place when
the row's capacity suffices, at the top of the pool when it outgrew it
(a *relocation*), in a fresh slot when an implicit-diagonal row
materializes, or by freeing the slot of a row that emptied.  A call
passes only row ids and watermarks; Python then applies the column
changes the kernel reports (a few per learning step), and when the
kernel stops because a scratch buffer, the slot table or the pool is
full it grows that (a pool or slot shortage compacts the tables) and
calls again from the row that stopped.  No per-row Python runs.

Bit-identity argument (the whole point — golden decision traces and the
ShermanMorrisonAuditor must not move by one ulp):

* Megh's left factor is a column of ``B`` itself, so the weight a rank-1
  update applies to row ``i`` is ``B[i, a]`` — *an entry of row i*.  A
  per-row replay that reads the weight after applying all earlier staged
  updates (and before this one) reproduces the eager value exactly; no
  column values are needed at enqueue time.
* The dirty-row marking is a *superset* of the true touched rows (the
  stored support of the pivot column plus every staged update's row set
  for updates that could fill it).  Because supersets only ever add rows
  whose true weight is zero, replaying **every** staged update against a
  row is safe: an update that never touched the row reads weight 0 and
  skips, exactly as the eager path skips entries absent from the column
  dict.  No per-row pending-id lists are needed.
* Within one update the scattered columns are unique, so per-entry adds,
  epsilon prunes, and dead-insert drops are independent; only the
  per-row *submission order* of updates matters, and the replay
  preserves it.  Flushing row ``i`` now or later yields the same floats.
* A direct write to a row while updates are staged (``set``, an eager
  scatter) settles the row first (:meth:`PendingUpdates.settle_row`):
  a dirty row is flushed, and a clean row's watermark moves to the
  current rank, because the updates staged before the write skipped it
  and must not replay against the written value.
* Both backends prune by one rule: an entry is dropped iff
  ``|v| <= PRUNE_EPSILON``, for a hit and a fresh insert alike, so a
  NaN survives under both and kernel ≡ eager holds for non-finite ``B``
  too.
* The C backend performs the identical double-precision operations
  (``d = scale*w`` then ``d*v`` per entry) and is compiled with
  ``-ffp-contract=off -fno-fast-math`` so no fused multiply-add can
  change a rounding.

A second entry point of the same library, ``megh_plan_candidates``,
builds a whole :class:`~repro.core.candidates.CandidatePlan` in one
call (source selection, the VM × PM feasibility test, the relief-row
fallback, the ``candidate_destinations`` top-k, the no-op and the fused
action indices).  :class:`CKernel` loads it and
:class:`~repro.core.candidates.CandidateIndex` marshals it (layout: the
``P_*`` constants); its only float operations are one multiply, one add
and compares, on the eager NumPy path's operands, so the plan is the
eager plan array for array.  A third, ``megh_plan_mmt``, plans a whole
MMT step (the relief PABFD call, then one per consolidation host) by
the per-PM scan of ``tests/oracles/pabfd.py`` with the scalar SPEC and
linear power models' operations, so its migrations are the eager
``power_aware_best_fit`` path's, in order
(:class:`~repro.baselines.mmt.placement.CompiledPlacement` marshals it;
layout: the ``M_*`` constants).

Backend selection: ``REPRO_KERNEL=auto`` (default; the C kernel when a
compiler is available, the eager path otherwise), ``c`` (require the
compiled kernel), ``off`` (eager path, no deferral).  It selects both
planners too: the candidate plan is compiled exactly when ``B`` has a
compiled backend, the MMT pass when the scheduler was built with one.
The eager path is both the no-compiler fallback and the bit-identity
reference the C kernel is tested against.  The library is loaded once
per process.
:data:`DEFAULT_WINDOW` bounds the staged rank; ``REPRO_KERNEL_CACHE``
relocates the compiled-object cache.

Flush writes to the owning matrix's backing store are *representation
preserving* — the logical matrix value does not change, so they do not
bump ``SparseMatrix.mutations`` (the counter is bumped once per rank-1
at enqueue, matching the eager path bump-for-bump).  Staging-state
changes bump :attr:`PendingUpdates.mutations` instead; meghflow's
MEGH011 checks that pairing against the declared invariant table.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sparse imports us)
    from repro.core.sparse import SparseMatrix

__all__ = [
    "CKernel",
    "DEFAULT_WINDOW",
    "KernelUnavailableError",
    "PendingUpdates",
    "make_backend",
    "make_pending",
    "resolve_mode",
]

#: Maximum staged rank before an automatic full flush (read by
#: :func:`make_pending` at call time).
DEFAULT_WINDOW = 128

#: Largest window a per-row one-byte watermark can address.
_MAX_WINDOW = 255

_VALID_MODES = ("auto", "c", "off")


class KernelUnavailableError(ConfigurationError):
    """Raised when ``REPRO_KERNEL=c`` but no compiled kernel can be built."""


def resolve_mode() -> str:
    """Read ``REPRO_KERNEL`` (validated; default ``auto``).

    Read per call — i.e. per matrix construction — so tests can flip the
    variable with ``monkeypatch.setenv`` without re-importing anything.
    """
    raw = os.environ.get("REPRO_KERNEL", "auto")
    mode = raw.strip().lower() or "auto"
    if mode not in _VALID_MODES:
        raise ConfigurationError(
            f"REPRO_KERNEL={raw!r} invalid; expected one of {_VALID_MODES}"
        )
    return mode


# ----------------------------------------------------------------------
# The compiled backend
# ----------------------------------------------------------------------

#: The grouped flush kernel.  One call resolves a batch of dirty rows
#: straight in the owning matrix's slot tables (layout: the ``S_*`` enum
#: below, mirrored by the ``S_*`` constants of this module): for each
#: row, replay the staged updates from the row's watermark in submission
#: order against a working copy of the stored row (an update whose
#: left-factor weight is zero is skipped), install the result in place
#: -- moving a row that outgrew its capacity to the top of the pool, or
#: giving a newly materialized row a slot -- and emit the exact column
#: changes (a sorted merge against the old row) so the Python side
#: touches only the column index.  All arithmetic is plain double
#: precision in the same association as the eager scatter:
#: ``d = scale * w; v = d * vals[t]``.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* Branchless binary search: the probe result feeds a conditional move
 * instead of a branch, so the data-dependent comparisons (near 50/50 on
 * this workload) cost no mispredictions. */
static int64_t lower_bound(const int64_t *arr, int64_t n, int64_t key) {
    if (n <= 0) return 0;
    const int64_t *base = arr;
    while (n > 1) {
        int64_t half = n >> 1;
        base = (base[half - 1] < key) ? base + half : base;
        n -= half;
    }
    return (base - arr) + (base[0] < key);
}

/* Mark every update after k whose pivot equals the just-inserted column
 * as a candidate (the insert may have given it a nonzero weight). */
static void mark_pivot(const int64_t *piv_sorted, const int64_t *piv_order,
                       uint8_t *cand, int64_t n_updates, int64_t col,
                       int64_t k)
{
    int64_t q = lower_bound(piv_sorted, n_updates, col);
    while (q < n_updates && piv_sorted[q] == col) {
        if (piv_order[q] > k) cand[piv_order[q]] = 1;
        q++;
    }
}

/* The one prune rule of both backends: drop iff |v| <= eps.  A NaN
 * compares false and survives, exactly as in the eager scatter. */
#define KEEP(v, eps) (!(fabs(v) <= (eps)))

/* Slot-table block of one SparseMatrix (must match the S_* constants
 * in kern.py).  Pointers first, then the pool/slot bump allocators and
 * the layout counters.  Row i lives at pool[off[s] .. off[s] + len[s])
 * of slot s = slot_of[i] (capacity cap[s]); slot 0 is the null slot:
 * slot_of[i] == 0 means the row is the implicit diagonal diag[i]. */
enum {
    S_DIAG = 0, S_SLOT_OF, S_SLOT_ROW, S_OFF, S_LEN, S_CAP,
    S_POOL_IDX, S_POOL_VAL,
    S_POOL_TOP, S_POOL_CAP, S_SLOT_TOP, S_SLOT_CAP,
    S_MIN_CAP, S_RELOCATIONS, S_COMPACTIONS,
    S_FIELDS
};

/* Argument-block slot layout (must match CKernel._SLOT_* constants).
 * One persistent int64 array carries every scalar and buffer pointer so
 * the per-call ctypes dispatch converts two arguments instead of ~20 --
 * the hot path flushes one or two rows thousands of times per second
 * and the conversion overhead was measurable. */
enum {
    A_STORE = 0,
    A_N_ROWS, A_ROW_BEGIN, A_ROWS, A_STARTS,
    A_N_UPDATES,
    A_PIVOTS, A_SCALES, A_UPD_OFFSETS, A_COLS, A_VALS,
    A_CHG_ROWS, A_CHG_COLS, A_CHG_CAP,
    A_SCRATCH_A_IDX, A_SCRATCH_A_VAL, A_SCRATCH_B_IDX, A_SCRATCH_B_VAL,
    A_SCRATCH_CAP,
    A_PIV_SORTED, A_PIV_ORDER, A_CAND,
    A_STATS,
    A_SLOTS
};

/* Stats block written by every flush call (CKernel._ST_* constants). */
enum {
    ST_APPLIED = 0, ST_SKIPPED, ST_NNZ_DELTA, ST_CHANGES,
    ST_NEED, ST_NEED_SIZE,
    ST_FIELDS
};

/* Why a call stopped early: the caller grows what is named and calls
 * again from the returned row (nothing of that row was written). */
enum { NEED_NONE = 0, NEED_SCRATCH, NEED_CHANGES, NEED_SLOT, NEED_POOL };

#define PTR(type, slot) ((type *)(intptr_t)a[slot])
#define SPTR(type, slot) ((type *)(intptr_t)st[slot])

/* Replay staged rank-1 updates onto rows[row_begin .. n_rows).
 *
 * The row is replayed by ping-pong two-pointer merges: each applied
 * update merges the current row image (sorted) with its scaled segment
 * (sorted) into the other scratch buffer.  Entry-wise this performs
 * exactly the eager scatter's float operations in the same order --
 * matched column: value + coeff*seg; segment-only column: coeff*seg;
 * either kept iff KEEP -- so the result is bit-identical to applying
 * the updates eagerly.
 *
 * The finished row is installed in the slot tables: in place when its
 * capacity suffices; otherwise at the pool top with capacity
 * max(min_cap, 2 * length) (the old region becomes dead space, counted
 * as one relocation); a newly materialized row (implicit diagonal
 * until now) takes the next slot; an emptied row frees its slot.
 * Column changes go to chg_rows/chg_cols in row order, each row's
 * added columns before its removed ones (a removed column is stored
 * as ~column).
 *
 * Returns the number of rows done.  Fewer than n_rows means a buffer,
 * the slot table or the pool is too small for the next row: stats
 * name what (ST_NEED) and how much (ST_NEED_SIZE), and that row is
 * untouched.  Stats always cover exactly the rows done by this call. */
int64_t megh_flush_rows(const int64_t *a, double eps)
{
    int64_t *st = PTR(int64_t, A_STORE);
    double  *diag = SPTR(double, S_DIAG);
    int32_t *slot_of = SPTR(int32_t, S_SLOT_OF);
    int64_t *slot_row = SPTR(int64_t, S_SLOT_ROW);
    int64_t *off = SPTR(int64_t, S_OFF);
    int64_t *len = SPTR(int64_t, S_LEN);
    int64_t *cap = SPTR(int64_t, S_CAP);
    int64_t *pool_idx = SPTR(int64_t, S_POOL_IDX);
    double  *pool_val = SPTR(double, S_POOL_VAL);
    int64_t min_cap = st[S_MIN_CAP];
    int64_t n_rows = a[A_N_ROWS];
    const int64_t *rows = PTR(const int64_t, A_ROWS);
    const int64_t *starts = PTR(const int64_t, A_STARTS);
    int64_t n_updates = a[A_N_UPDATES];
    const int64_t *pivots = PTR(const int64_t, A_PIVOTS);
    const double  *scales = PTR(const double, A_SCALES);
    const int64_t *upd_offsets = PTR(const int64_t, A_UPD_OFFSETS);
    const int64_t *cols = PTR(const int64_t, A_COLS);
    const double  *vals = PTR(const double, A_VALS);
    int64_t *chg_rows = PTR(int64_t, A_CHG_ROWS);
    int64_t *chg_cols = PTR(int64_t, A_CHG_COLS);
    int64_t chg_cap = a[A_CHG_CAP];
    int64_t *sa_idx = PTR(int64_t, A_SCRATCH_A_IDX);
    double  *sa_val = PTR(double, A_SCRATCH_A_VAL);
    int64_t *sb_idx = PTR(int64_t, A_SCRATCH_B_IDX);
    double  *sb_val = PTR(double, A_SCRATCH_B_VAL);
    int64_t scratch_cap = a[A_SCRATCH_CAP];
    int64_t *piv_sorted = PTR(int64_t, A_PIV_SORTED);
    int64_t *piv_order = PTR(int64_t, A_PIV_ORDER);
    uint8_t *cand = PTR(uint8_t, A_CAND);
    int64_t *stats = PTR(int64_t, A_STATS);
    int64_t applied = 0, skipped = 0, nnz_delta = 0, n_chg = 0;
    int64_t need = NEED_NONE, need_size = 0;
    int64_t r;
    /* Batch calls amortize a per-row candidate bitmap: a sorted copy of
     * the window's pivots lets each row find its applicable updates by
     * one linear merge against its columns instead of one binary search
     * per (row, update).  Pair calls skip the setup -- the sort would
     * cost more than the searches it saves.  Either way the applied /
     * skipped counts are the same (the bitmap is an exact superset). */
    int use_mask = (n_rows > 4 && n_updates > 0);
    if (use_mask) {
        for (int64_t k = 0; k < n_updates; k++) {
            int64_t pv = pivots[k], j = k;
            while (j > 0 && piv_sorted[j - 1] > pv) {
                piv_sorted[j] = piv_sorted[j - 1];
                piv_order[j] = piv_order[j - 1];
                j--;
            }
            piv_sorted[j] = pv;
            piv_order[j] = k;
        }
    }
    for (r = a[A_ROW_BEGIN]; r < n_rows; r++) {
        int64_t row_id = rows[r];
        int64_t s = slot_of[row_id];
        const int64_t *cur_idx;
        const double  *cur_val;
        const int64_t *orig_idx;
        int64_t n, orig_n, old_count;
        int64_t row_applied = 0, row_skipped = 0;
        int which;  /* next merge destination: 0 -> scratch A, 1 -> B */
        if (s > 0) {
            cur_idx = pool_idx + off[s];
            cur_val = pool_val + off[s];
            n = len[s];
            orig_idx = cur_idx;
            orig_n = n;
            old_count = n;
            which = 0;
        } else {
            /* Implicit-diagonal row: materialize into scratch A.  The
             * diagonal is NOT part of "old" for the column-index diff:
             * it had no column-index entry, so if it survives it must
             * be reported as added. */
            double diagonal = diag[row_id];
            orig_idx = sa_idx;
            orig_n = 0;
            n = 0;
            if (diagonal != 0.0) {
                sa_idx[0] = row_id;
                sa_val[0] = diagonal;
                n = 1;
            }
            old_count = n;
            cur_idx = sa_idx;
            cur_val = sa_val;
            which = 1;
        }
        if (use_mask) {
            /* Initial candidates: updates whose pivot column is present
             * in the row right now.  Applied updates extend the bitmap
             * below when they insert a column some later pivot needs
             * (every other update has weight zero by the superset
             * argument, so skipping it changes no float). */
            memset(cand, 0, (size_t)n_updates);
            int64_t u = 0, v = 0;
            while (u < n && v < n_updates) {
                int64_t cu = cur_idx[u], pv = piv_sorted[v];
                if (cu < pv) u++;
                else if (cu > pv) v++;
                else { cand[piv_order[v]] = 1; v++; }
            }
        }
        for (int64_t k = starts[r]; k < n_updates; k++) {
            if (use_mask && !cand[k]) { row_skipped++; continue; }
            int64_t pos = lower_bound(cur_idx, n, pivots[k]);
            double w = (pos < n && cur_idx[pos] == pivots[k])
                ? cur_val[pos] : 0.0;
            if (w == 0.0) { row_skipped++; continue; }
            row_applied++;
            double coeff = scales[k] * w;
            int64_t t = upd_offsets[k], t_end = upd_offsets[k + 1];
            if (n + (t_end - t) > scratch_cap) {
                need = NEED_SCRATCH;
                need_size = n + (t_end - t);
                goto stop;
            }
            int64_t *dst_idx = which ? sb_idx : sa_idx;
            double  *dst_val = which ? sb_val : sa_val;
            int64_t p = 0, m = 0;
            while (p < n && t < t_end) {
                int64_t cj = cur_idx[p], sj = cols[t];
                if (cj < sj) {
                    dst_idx[m] = cj;
                    dst_val[m++] = cur_val[p++];
                } else if (cj > sj) {
                    double v = coeff * vals[t++];
                    if (KEEP(v, eps)) {
                        dst_idx[m] = sj;
                        dst_val[m++] = v;
                        if (use_mask)
                            mark_pivot(piv_sorted, piv_order, cand,
                                       n_updates, sj, k);
                    }
                } else {
                    double v = cur_val[p++] + coeff * vals[t++];
                    if (KEEP(v, eps)) { dst_idx[m] = cj; dst_val[m++] = v; }
                }
            }
            while (p < n) {
                dst_idx[m] = cur_idx[p];
                dst_val[m++] = cur_val[p++];
            }
            while (t < t_end) {
                double v = coeff * vals[t];
                if (KEEP(v, eps)) {
                    dst_idx[m] = cols[t];
                    dst_val[m++] = v;
                    if (use_mask)
                        mark_pivot(piv_sorted, piv_order, cand,
                                   n_updates, cols[t], k);
                }
                t++;
            }
            cur_idx = dst_idx;
            cur_val = dst_val;
            n = m;
            which ^= 1;
        }
        if (row_applied) {
            /* Check every resource the install needs before writing
             * anything, so a stop leaves the row untouched. */
            int64_t new_cap = 0;
            if (n_chg + orig_n + n > chg_cap) {
                need = NEED_CHANGES;
                need_size = n_chg + orig_n + n;
                goto stop;
            }
            if (n > 0 && (s == 0 || cap[s] < n)) {
                new_cap = 2 * n > min_cap ? 2 * n : min_cap;
                if (s == 0 && st[S_SLOT_TOP] >= st[S_SLOT_CAP]) {
                    need = NEED_SLOT;
                    need_size = 1;
                    goto stop;
                }
                if (st[S_POOL_TOP] + new_cap > st[S_POOL_CAP]) {
                    need = NEED_POOL;
                    need_size = new_cap;
                    goto stop;
                }
            }
            /* Sorted merge of old stored columns vs new columns -> the
             * exact column-index delta (before the install overwrites
             * the old image in place). */
            int64_t x = 0, b = 0;
            while (x < orig_n || b < n) {
                if (x >= orig_n) {
                    chg_rows[n_chg] = row_id;
                    chg_cols[n_chg++] = cur_idx[b++];
                } else if (b >= n || orig_idx[x] < cur_idx[b]) {
                    x++;
                } else if (orig_idx[x] == cur_idx[b]) {
                    x++; b++;
                } else {
                    chg_rows[n_chg] = row_id;
                    chg_cols[n_chg++] = cur_idx[b++];
                }
            }
            x = 0; b = 0;
            while (x < orig_n) {
                if (b >= n || orig_idx[x] < cur_idx[b]) {
                    chg_rows[n_chg] = row_id;
                    chg_cols[n_chg++] = ~orig_idx[x++];
                } else if (orig_idx[x] == cur_idx[b]) {
                    x++; b++;
                } else {
                    b++;
                }
            }
            if (s == 0) diag[row_id] = 0.0;
            if (n == 0) {
                if (s > 0) {
                    slot_row[s] = -1;
                    len[s] = 0;
                    slot_of[row_id] = 0;
                }
            } else {
                if (new_cap) {
                    if (s > 0) {
                        st[S_RELOCATIONS] += 1;
                    } else {
                        s = st[S_SLOT_TOP]++;
                        slot_row[s] = row_id;
                        slot_of[row_id] = (int32_t)s;
                    }
                    off[s] = st[S_POOL_TOP];
                    cap[s] = new_cap;
                    st[S_POOL_TOP] += new_cap;
                }
                memcpy(pool_idx + off[s], cur_idx, (size_t)n * sizeof(int64_t));
                memcpy(pool_val + off[s], cur_val, (size_t)n * sizeof(double));
                len[s] = n;
            }
            nnz_delta += n - old_count;
        }
        applied += row_applied;
        skipped += row_skipped;
    }
stop:
    stats[ST_APPLIED] = applied;
    stats[ST_SKIPPED] = skipped;
    stats[ST_NNZ_DELTA] = nnz_delta;
    stats[ST_CHANGES] = n_chg;
    stats[ST_NEED] = need;
    stats[ST_NEED_SIZE] = need_size;
    return r;
}

/* Row i of the slot tables as (idx, val, length); an implicit row is
 * synthesized into the one-entry buffers. */
static int64_t store_row(const int64_t *st, int64_t i,
                         const int64_t **idx, const double **val,
                         int64_t *one_idx, double *one_val)
{
    int64_t s = SPTR(const int32_t, S_SLOT_OF)[i];
    if (s > 0) {
        int64_t o = SPTR(const int64_t, S_OFF)[s];
        *idx = SPTR(const int64_t, S_POOL_IDX) + o;
        *val = SPTR(const double, S_POOL_VAL) + o;
        return SPTR(const int64_t, S_LEN)[s];
    }
    double diagonal = SPTR(const double, S_DIAG)[i];
    *idx = one_idx;
    *val = one_val;
    if (diagonal == 0.0) return 0;
    one_idx[0] = i;
    one_val[0] = diagonal;
    return 1;
}

/* One learning-step row combine: sorted-union merge of rows a and b
 * (read from the slot tables) computing row_a - gamma * row_b, plus the
 * two column-``piv`` entry lookups the Sherman-Morrison denominator
 * needs.
 *
 * Float ops exactly match the NumPy construction in lstd.update (zeros
 * scatter, then subtract): a-only column -> val_a; shared column ->
 * val_a - gamma * val_b (one product rounding, one subtraction);
 * b-only column -> 0.0 - gamma * val_b (the literal 0.0 keeps the
 * +/-0.0 sign identical to NumPy's in-place subtract from zero).
 * Exact zeros are dropped, mirroring the ``values != 0.0`` filter the
 * staging path applies; output is sorted-unique by construction.
 *
 * Returns the output length, or -(na + nb) without writing when
 * out_cap is smaller than that (the caller grows and calls again). */
int64_t megh_combine_rows(const int64_t *st, int64_t row_a, int64_t row_b,
                          double gamma, int64_t piv, int64_t out_cap,
                          int64_t *out_idx, double *out_val,
                          double *entries)
{
    const int64_t *idx_a, *idx_b;
    const double *val_a, *val_b;
    int64_t one_a_idx[1], one_b_idx[1];
    double one_a_val[1], one_b_val[1];
    int64_t na = store_row(st, row_a, &idx_a, &val_a, one_a_idx, one_a_val);
    int64_t nb = store_row(st, row_b, &idx_b, &val_b, one_b_idx, one_b_val);
    if (na + nb > out_cap) return -(na + nb);
    int64_t i = 0, j = 0, n = 0;
    while (i < na && j < nb) {
        int64_t ca = idx_a[i], cb = idx_b[j];
        if (ca < cb) {
            double v = val_a[i];
            if (v != 0.0) { out_idx[n] = ca; out_val[n] = v; n++; }
            i++;
        } else if (cb < ca) {
            double v = 0.0 - gamma * val_b[j];
            if (v != 0.0) { out_idx[n] = cb; out_val[n] = v; n++; }
            j++;
        } else {
            double v = val_a[i] - gamma * val_b[j];
            if (v != 0.0) { out_idx[n] = ca; out_val[n] = v; n++; }
            i++; j++;
        }
    }
    for (; i < na; i++) {
        double v = val_a[i];
        if (v != 0.0) { out_idx[n] = idx_a[i]; out_val[n] = v; n++; }
    }
    for (; j < nb; j++) {
        double v = 0.0 - gamma * val_b[j];
        if (v != 0.0) { out_idx[n] = idx_b[j]; out_val[n] = v; n++; }
    }
    {
        int64_t p = lower_bound(idx_a, na, piv);
        entries[0] = (p < na && idx_a[p] == piv) ? val_a[p] : 0.0;
        p = lower_bound(idx_b, nb, piv);
        entries[1] = (p < nb && idx_b[p] == piv) ? val_b[p] : 0.0;
    }
    return n;
}

/* Candidate-plan argument block (must match the P_* constants in
 * kern.py).  The flag bytes hold vm_active (N), the overloaded mask (M)
 * and the dedup marks (N, all zero between calls); the int64 scratch is
 * carved below.  The outputs go to a fresh array of every call. */
enum {
    P_NUM_VMS = 0, P_NUM_PMS,
    P_HOST_OF, P_VM_RAM, P_VM_DEMAND, P_VM_MIPS, P_PM_VM_COUNT,
    P_UTIL, P_RAM_FREE, P_PM_DEMAND, P_BUDGET, P_BUDGET_FULL,
    P_FLAGS, P_SCRATCH,
    P_CONSOLIDATE, P_MAX_VMS, P_MAX_DESTS,
    P_VM_IDS, P_SOURCES, P_MANDATORY, P_OFFSETS, P_DEST_PM, P_ACTIONS,
    P_ACTION_CAP, P_N_ACTIONS,
    P_SLOTS
};

/* Whether host a precedes host b in the eager path's stable argsort of
 * -util: higher utilization first, NaN last, ties in ascending id.
 * Negation is exact, so -ua < -ub is ua > ub. */
static int ranks_before(const double *util, int64_t a, int64_t b)
{
    double ua = util[a], ub = util[b];
    if (ua != ua || ub != ub) return (ub != ub) && (ua == ua || a < b);
    return ua > ub || (ua == ub && a < b);
}

/* Append host h's VMs (ascending id) to the candidate rows: the cap
 * counts VMs before the dedup, a VM already listed is skipped. */
#define EMIT_HOST(h) do {                                              \
        int64_t q_ = (h) ? bucket[(h) - 1] : 0;                        \
        for (; q_ < bucket[h]; q_++) {                                 \
            int64_t v_ = by_host[q_];                                  \
            if (max_vms && emitted >= max_vms) goto sources_done;      \
            emitted++;                                                 \
            if (!seen[v_]) { seen[v_] = 1; vm_ids[n_rows++] = v_; }    \
        }                                                              \
    } while (0)

/* One step's candidate plan (CandidateIndex.plan's compiled path): the
 * rows, their feasible destinations, the no-op and the fused action
 * indices, array for array the eager NumPy pipeline's.  The only float
 * operations are vm_demand * vm_mips, pm_demand + that product, and
 * compares, the eager path's operations on the same operands.  Returns
 * the row count (P_N_ACTIONS holds the action count), or -1 when a
 * host id or VM count is out of range or the output bound would be
 * exceeded (nothing valid written). */
int64_t megh_plan_candidates(int64_t *a, double underload)
{
    int64_t n_vms = a[P_NUM_VMS], n_pms = a[P_NUM_PMS];
    const int64_t *host_of = PTR(const int64_t, P_HOST_OF);
    const double *vm_ram = PTR(const double, P_VM_RAM);
    const double *vm_demand = PTR(const double, P_VM_DEMAND);
    const double *vm_mips = PTR(const double, P_VM_MIPS);
    const int64_t *pm_count = PTR(const int64_t, P_PM_VM_COUNT);
    const double *util = PTR(const double, P_UTIL);
    const double *ram_free = PTR(const double, P_RAM_FREE);
    const double *pm_demand = PTR(const double, P_PM_DEMAND);
    const double *budget = PTR(const double, P_BUDGET);
    const double *budget_full = PTR(const double, P_BUDGET_FULL);
    const uint8_t *vm_active = PTR(const uint8_t, P_FLAGS);
    const uint8_t *overloaded = vm_active + n_vms;
    uint8_t *seen = PTR(uint8_t, P_FLAGS) + n_vms + n_pms;
    int64_t *bucket = PTR(int64_t, P_SCRATCH);      /* n_pms + 1 */
    int64_t *by_host = bucket + n_pms + 1;          /* n_vms */
    int64_t *under = by_host + n_vms;               /* n_pms */
    int64_t *under_sorted = under + n_pms;          /* n_pms */
    int64_t *level = under_sorted + n_pms;          /* n_vms + 2 */
    int64_t *dests = level + n_vms + 2;             /* n_pms */
    int64_t *top = dests + n_pms;                   /* n_pms */
    int64_t max_vms = a[P_MAX_VMS], limit = a[P_MAX_DESTS];
    int64_t *vm_ids = PTR(int64_t, P_VM_IDS);
    int64_t *sources = PTR(int64_t, P_SOURCES);
    int64_t *mandatory = PTR(int64_t, P_MANDATORY);
    int64_t *offsets = PTR(int64_t, P_OFFSETS);
    int64_t *dest_pm = PTR(int64_t, P_DEST_PM);
    int64_t *actions = PTR(int64_t, P_ACTIONS);
    int64_t action_cap = a[P_ACTION_CAP];
    int64_t n_rows = 0, emitted = 0, pos = 0, p, v, i, r;

    /* Placed active VMs grouped by host: a counting sort filled in
     * ascending VM id, so each group is ascending (the eager path's
     * stable argsort by host).  Afterwards host p's group is
     * by_host[p ? bucket[p - 1] : 0 .. bucket[p]). */
    for (p = 0; p < n_pms; p++)
        if (pm_count[p] > n_vms) return -1;  /* level[] is n_vms + 2 */
    memset(bucket, 0, (size_t)(n_pms + 1) * sizeof(int64_t));
    for (v = 0; v < n_vms; v++) {
        if (host_of[v] >= n_pms) return -1;
        if (host_of[v] >= 0 && vm_active[v]) bucket[host_of[v] + 1]++;
    }
    for (p = 0; p < n_pms; p++) bucket[p + 1] += bucket[p];
    for (v = 0; v < n_vms; v++)
        if (host_of[v] >= 0 && vm_active[v]) by_host[bucket[host_of[v]]++] = v;

    /* Relief rows: overloaded hosts in ascending id. */
    for (p = 0; p < n_pms; p++)
        if (overloaded[p]) EMIT_HOST(p);
    if (a[P_CONSOLIDATE]) {
        /* Occupied hosts with 0 < util <= underload, stable-sorted by
         * their placed-VM count (inactive VMs included). */
        int64_t n_under = 0, max_count = 0;
        for (p = 0; p < n_pms; p++) {
            if (pm_count[p] > 0 && util[p] > 0.0 && util[p] <= underload) {
                under[n_under++] = p;
                if (pm_count[p] > max_count) max_count = pm_count[p];
            }
        }
        memset(level, 0, (size_t)(max_count + 2) * sizeof(int64_t));
        for (i = 0; i < n_under; i++) level[pm_count[under[i]] + 1]++;
        for (i = 0; i <= max_count; i++) level[i + 1] += level[i];
        for (i = 0; i < n_under; i++)
            under_sorted[level[pm_count[under[i]]]++] = under[i];
        for (i = 0; i < n_under; i++) EMIT_HOST(under_sorted[i]);
    }
sources_done:
    for (r = 0; r < n_rows; r++) seen[vm_ids[r]] = 0;

    offsets[0] = 0;
    for (r = 0; r < n_rows; r++) {
        int64_t vm = vm_ids[r], src = host_of[vm], n = 0;
        int relief = overloaded[src] != 0;
        double ram = vm_ram[vm], dmips = vm_demand[vm] * vm_mips[vm];
        /* Feasible: RAM fits and pm_demand + dmips stays within the
         * headroom budget; consolidation only packs occupied hosts. */
        for (p = 0; p < n_pms; p++)
            if (p != src && ram <= ram_free[p]
                && pm_demand[p] + dmips <= budget[p]
                && (relief || pm_count[p] > 0))
                dests[n++] = p;
        /* A relief row with nowhere to go retries at the full budget. */
        if (relief && n == 0)
            for (p = 0; p < n_pms; p++)
                if (p != src && ram <= ram_free[p]
                    && pm_demand[p] + dmips <= budget_full[p])
                    dests[n++] = p;
        if (limit && n > limit) {
            /* The limit most-utilized destinations: insertion into a
             * sorted prefix, stable because dests ascend. */
            int64_t kept = 0;
            for (i = 0; i < n; i++) {
                int64_t d = dests[i], j;
                if (kept == limit && !ranks_before(util, d, top[kept - 1]))
                    continue;
                j = kept < limit ? kept++ : limit - 1;
                while (j > 0 && ranks_before(util, d, top[j - 1])) {
                    top[j] = top[j - 1];
                    j--;
                }
                top[j] = d;
            }
            memcpy(dests, top, (size_t)limit * sizeof(int64_t));
            n = limit;
        }
        /* The stay-put no-op leads unless a relief row can move. */
        int noop = !relief || n == 0;
        if (pos + n + noop > action_cap) return -1;
        sources[r] = src;
        mandatory[r] = relief;
        if (noop) {
            dest_pm[pos] = src;
            actions[pos++] = vm * n_pms + src;
        }
        for (i = 0; i < n; i++) {
            dest_pm[pos] = dests[i];
            actions[pos++] = vm * n_pms + dests[i];
        }
        offsets[r + 1] = pos;
    }
    a[P_N_ACTIONS] = pos;
    return n_rows;
}

/* MMT placement argument block (mirrors the M_* constants in kern.py).
 * ints: model_of (M), VM bounds by host (M + 1), VMs by host (N), relief
 * VMs (N), consolidation hosts (M), scratch (2 N); doubles: pm_mips, free
 * RAM, demand, then wake, before, pending MIPS and RAM (M each), then
 * 12 per power model; flags: relief-excluded, asleep, evacuated (M
 * each); out: (vm, dest) pairs. */
enum { M_NUM_VMS = 0, M_NUM_PMS, M_HOST_OF, M_VM_RAM, M_VM_DEMAND,
       M_VM_MIPS, M_INTS, M_DOUBLES, M_FLAGS, M_OUT, M_N_RELIEF, M_N_HOSTS };

/* Power at utilization u of a model row, kind 0 SPEC (watts at 0 %,
 * 10 %, ..., 100 %) or 1 linear (idle, peak): SpecPowerModel.power and
 * LinearPowerModel.power operation for operation. */
static double model_power(const double *m, double u)
{
    u = u < 0.0 ? 0.0 : u > 1.0 ? 1.0 : u;
    if (m[0] != 0.0) return m[1] + (m[2] - m[1]) * u;
    u = u * 10.0;
    if (u != u) return u;  /* NaN has no segment */
    int64_t low = (int64_t)u;
    if (low >= 10) return m[11];
    double frac = u - (double)low, below = m[1 + low], above = m[2 + low];
    double w = below * (1.0 - frac) + above * frac;
    double lo = below <= above ? below : above;
    double hi = below <= above ? above : below;
    return w < lo ? lo : w > hi ? hi : w;
}

typedef struct {
    int64_t n_pms;
    double threshold;
    const int64_t *host_of, *model_of;
    const double *vm_ram, *vm_demand, *vm_mips;
    const double *pm_mips, *ram_free, *pm_demand, *models;
    double *wake;
    /* One PABFD call's commitments: each host's power at its pending
     * load, its pending MIPS and RAM (+= in placement order, as the
     * scan's pending maps), and the hosts committed to. */
    double *before, *pend_mips, *pend_ram;
    int64_t *order, *touched, n_touched;
} Mmt;

/* P(min(1, load / mips)) of host p. */
static double host_power(const Mmt *s, int64_t p, double load)
{
    double u = load / s->pm_mips[p];
    return model_power(s->models + 12 * s->model_of[p], u < 1.0 ? u : 1.0);
}

static void commit(Mmt *s, int64_t p, double mips, double ram)
{
    s->pend_mips[p] += mips;
    s->pend_ram[p] += ram;
    s->before[p] = host_power(s, p, s->pm_demand[p] + s->pend_mips[p]);
    s->touched[s->n_touched++] = p;
}

/* Back to zero pending (all: on every host): each call starts afresh. */
static void release(Mmt *s, int64_t all)
{
    int64_t n = all ? s->n_pms : s->n_touched;
    for (int64_t i = 0; i < n; i++) {
        int64_t p = all ? i : s->touched[i];
        s->pend_mips[p] = s->pend_ram[p] = 0.0;
        s->before[p] = host_power(s, p, s->pm_demand[p] + 0.0);
    }
    s->n_touched = 0;
}

#define VM_MIPS(v) (s->vm_demand[v] * s->vm_mips[v])

/* One PABFD call, the per-PM scan of tests/oracles/pabfd.py: the VMs
 * stably by descending demand, each to the host of least increase
 * (P(after) - P(before)) + wake, strict < in ascending id, among the
 * hosts neither excluded nor its source with the RAM free and the load
 * within threshold * mips.  Writes (vm, dest) pairs in placement order
 * and returns their count; all_or_none stops at the first VM that fits
 * nowhere (the caller drops that call). */
static int64_t pabfd(Mmt *s, const int64_t *vms, int64_t n,
                     const uint8_t *excluded, int all_or_none, int64_t *out)
{
    int64_t *order = s->order, placed = 0, i, j, p;
    for (i = 0; i < n; i++) {
        double key = -VM_MIPS(vms[i]);
        for (j = i; j > 0 && key < -VM_MIPS(order[j - 1]); j--)
            order[j] = order[j - 1];
        order[j] = vms[i];
    }
    for (i = 0; i < n; i++) {
        int64_t v = order[i], src = s->host_of[v], best = -1;
        double mips = VM_MIPS(v), ram = s->vm_ram[v], best_inc = INFINITY;
        for (p = 0; p < s->n_pms; p++) {
            if (excluded[p] || p == src) continue;
            if (ram > s->ram_free[p] - s->pend_ram[p]) continue;
            double load = (s->pm_demand[p] + s->pend_mips[p]) + mips;
            if (load > s->threshold * s->pm_mips[p]) continue;
            double inc =
                (host_power(s, p, load) - s->before[p]) + s->wake[p];
            if (inc < best_inc) { best_inc = inc; best = p; }
        }
        if (best >= 0) {
            out[2 * placed] = v;
            out[2 * placed++ + 1] = best;
            commit(s, best, mips, ram);
        } else if (all_or_none) break;
    }
    release(s, 0);
    return placed;
}

static int ids_below(const int64_t *ids, int64_t n, int64_t bound)
{
    for (int64_t i = 0; i < n; i++) if (ids[i] < 0 || ids[i] >= bound) return 0;
    return 1;
}

/* One MMT step's placement pass (MMTScheduler.decide's compiled path):
 * the relief call, relief-excluded hosts excluded, kept partial; then
 * one call per consolidation host in the given order, the hosts
 * evacuated so far excluded, kept (and the host evacuated) only when
 * every VM of the host is placed.  Returns the migration count, or -1
 * when an id or bound is out of range (nothing valid written). */
int64_t megh_plan_mmt(int64_t *a, double threshold)
{
    int64_t n_vms = a[M_NUM_VMS], n_pms = a[M_NUM_PMS], n_out, i, p;
    int64_t n_relief = a[M_N_RELIEF], n_hosts = a[M_N_HOSTS];
    int64_t *ints = PTR(int64_t, M_INTS), *out = PTR(int64_t, M_OUT);
    const int64_t *bounds = ints + n_pms, *by_host = bounds + n_pms + 1;
    const int64_t *relief = by_host + n_vms, *hosts = relief + n_vms;
    int64_t *order = ints + 3 * n_pms + 1 + 2 * n_vms;
    double *dbl = PTR(double, M_DOUBLES);
    uint8_t *flags = PTR(uint8_t, M_FLAGS), *evacuated = flags + 2 * n_pms;
    Mmt s = {
        .n_pms = n_pms, .threshold = threshold, .model_of = ints,
        .host_of = PTR(const int64_t, M_HOST_OF),
        .vm_ram = PTR(const double, M_VM_RAM),
        .vm_demand = PTR(const double, M_VM_DEMAND),
        .vm_mips = PTR(const double, M_VM_MIPS),
        .pm_mips = dbl, .ram_free = dbl + n_pms, .pm_demand = dbl + 2 * n_pms,
        .wake = dbl + 3 * n_pms, .before = dbl + 4 * n_pms,
        .pend_mips = dbl + 5 * n_pms, .pend_ram = dbl + 6 * n_pms,
        .models = dbl + 7 * n_pms, .order = order, .touched = order + n_vms,
    };
    if (n_relief < 0 || n_relief > n_vms || n_hosts < 0 || n_hosts > n_pms
        || bounds[0] != 0 || bounds[n_pms] > n_vms
        || !ids_below(by_host, bounds[n_pms], n_vms)
        || !ids_below(relief, n_relief, n_vms)
        || !ids_below(hosts, n_hosts, n_pms))
        return -1;
    for (p = 0; p < n_pms; p++)
        if (bounds[p + 1] < bounds[p]) return -1;
    for (p = 0; p < n_pms; p++)  /* a sleeping host costs P(0) to wake */
        s.wake[p] =
            flags[n_pms + p] ? model_power(s.models + 12 * ints[p], 0.0) : 0.0;
    memset(evacuated, 0, (size_t)n_pms);
    release(&s, 1);
    n_out = pabfd(&s, relief, n_relief, flags, 0, out);
    for (i = 0; i < n_hosts; i++) {
        int64_t h = hosts[i], n = bounds[h + 1] - bounds[h];
        if (n_out + n > n_vms) return -1;
        if (pabfd(&s, by_host + bounds[h], n, evacuated, 1, out + 2 * n_out)
            == n) {
            evacuated[h] = 1;
            n_out += n;
        }
    }
    return n_out;
}
"""

#: Slot-table block layout of a :class:`~repro.core.sparse.SparseMatrix`
#: (mirrors the C ``S_*`` enum above): one int64 array per matrix that
#: carries the table pointers, the pool/slot bump allocators and the
#: layout counters, read and written in place by both the kernel and
#: the eager path.
(
    S_DIAG,
    S_SLOT_OF,
    S_SLOT_ROW,
    S_OFF,
    S_LEN,
    S_CAP,
    S_POOL_IDX,
    S_POOL_VAL,
    S_POOL_TOP,
    S_POOL_CAP,
    S_SLOT_TOP,
    S_SLOT_CAP,
    S_MIN_CAP,
    S_RELOCATIONS,
    S_COMPACTIONS,
    S_FIELDS,
) = range(16)

#: Candidate-plan argument block layout (mirrors the C ``P_*`` enum):
#: one int64 array per :class:`~repro.core.candidates.CandidateIndex`
#: carrying the fleet's array pointers, the config caps, the scratch
#: and the output pointers of ``megh_plan_candidates``.
(
    P_NUM_VMS,
    P_NUM_PMS,
    P_HOST_OF,
    P_VM_RAM,
    P_VM_DEMAND,
    P_VM_MIPS,
    P_PM_VM_COUNT,
    P_UTIL,
    P_RAM_FREE,
    P_PM_DEMAND,
    P_BUDGET,
    P_BUDGET_FULL,
    P_FLAGS,
    P_SCRATCH,
    P_CONSOLIDATE,
    P_MAX_VMS,
    P_MAX_DESTS,
    P_VM_IDS,
    P_SOURCES,
    P_MANDATORY,
    P_OFFSETS,
    P_DEST_PM,
    P_ACTIONS,
    P_ACTION_CAP,
    P_N_ACTIONS,
    P_SLOTS,
) = range(26)

#: MMT placement argument block layout (mirrors the C ``M_*`` enum): one
#: int64 array per :class:`~repro.baselines.mmt.placement.CompiledPlacement`
#: carrying the fleet's VM vectors, its int64, double, flag and output
#: buffers and the step's input counts.
(M_NUM_VMS, M_NUM_PMS, M_HOST_OF, M_VM_RAM, M_VM_DEMAND, M_VM_MIPS, M_INTS,
 M_DOUBLES, M_FLAGS, M_OUT, M_N_RELIEF, M_N_HOSTS, M_SLOTS) = range(13)

#: Compile flags.  ``-ffp-contract=off`` and ``-fno-fast-math`` are
#: load-bearing: a fused multiply-add or a fast-math rewrite would change
#: roundings and break bit-identity with the eager path.  Under them
#: ``-O3 -march=native`` only change speed, never an FP result.
_CFLAGS = (
    "-O3",
    "-march=native",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-fast-math",
)


def _kernel_cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kern")


def _find_compiler() -> Optional[str]:
    for name in ("gcc", "cc", "clang"):
        for prefix in os.environ.get("PATH", "").split(os.pathsep):
            candidate = os.path.join(prefix, name)
            if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                return candidate
    return None


#: ``/proc/cpuinfo`` keys naming the CPU an ``-march=native`` build
#: targets (``Features`` is the aarch64 spelling of ``flags``).
_CPUINFO_KEYS = ("model name", "flags", "Features")


@functools.lru_cache(maxsize=None)
def _toolchain_identity(compiler: str) -> str:
    """What a cached ``.so`` depends on besides its source and flags.

    ``-march=native`` bakes the build host's instruction set into the
    object, so a cache directory shared between machines must never hand
    one CPU's build to another, and an in-place compiler upgrade must
    rebuild.  The identity is the resolved compiler path with its size
    and mtime, ``platform.machine()``, and the first processor's
    ``/proc/cpuinfo`` lines for :data:`_CPUINFO_KEYS` where that file
    exists.  Computed once per process from file metadata: no process
    is spawned.
    """
    resolved = os.path.realpath(compiler)
    stat = os.stat(resolved)
    parts = [
        resolved, str(stat.st_size), str(stat.st_mtime_ns), platform.machine()
    ]
    seen: Dict[str, str] = {}
    try:
        with open(
            "/proc/cpuinfo", encoding="utf-8", errors="replace"
        ) as handle:
            for line in handle:
                if not line.strip() and seen:
                    break  # end of the first processor's block
                key = line.split(":", 1)[0].strip()
                if key in _CPUINFO_KEYS and key not in seen:
                    seen[key] = line.strip()
    except OSError:
        pass  # no /proc (macOS, BSD): the machine name has to do
    parts.extend(seen[key] for key in _CPUINFO_KEYS if key in seen)
    return "\n".join(parts)


def _library_digest(compiler: str) -> str:
    """Cache key of the compiled kernel: source, flags, toolchain, CPU."""
    return _digest_of(_toolchain_identity(compiler))


@functools.lru_cache(maxsize=None)
def _digest_of(identity: str) -> str:
    """:func:`_library_digest` of a toolchain identity, once a process."""
    key = "\0".join((_C_SOURCE, " ".join(_CFLAGS), identity))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


#: The compiled library at a path, loaded once per process.
_load_library = functools.lru_cache(maxsize=None)(ctypes.CDLL)


def _compiled_library_path() -> str:
    """Compile (once, cached on disk) and return the .so path.

    The cache entry is named by :func:`_library_digest`, so a build is
    reused only for the same source, flags, compiler and CPU.  Tries
    ``_CFLAGS`` first, then once more without ``-march=native`` for
    toolchains that reject it (the flag never changes FP results, only
    speed).  Raises :class:`KernelUnavailableError` when no compiler is
    available or every attempt fails; ``auto`` mode catches this and
    falls back.  A cache directory that cannot be created (say,
    ``REPRO_KERNEL_CACHE`` at or under a regular file) raises a plain
    :class:`ConfigurationError` instead, which no mode falls back from.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "REPRO_KERNEL: no C compiler (gcc/cc/clang) on PATH"
        )
    digest = _library_digest(compiler)
    cache_dir = _kernel_cache_dir()
    library = os.path.join(cache_dir, f"megh_kern_{digest}.so")
    if os.path.exists(library):
        return library
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as error:
        # Not a fallback case: a misplaced cache is a configuration
        # error even in ``auto`` mode, reported as one line by the CLI.
        raise ConfigurationError(
            f"REPRO_KERNEL_CACHE: cannot use {cache_dir!r} as the kernel "
            f"cache directory: {error}"
        ) from error
    # Per-process staging files, renamed into place atomically: a second
    # cold builder (e.g. an engine worker) must never truncate the source
    # this process is compiling.  The staged source keeps its ``.c``
    # suffix so the compiler still reads it as C.
    source = os.path.join(cache_dir, f"megh_kern_{digest}.c")
    staging_source = os.path.join(
        cache_dir, f"megh_kern_{digest}.{os.getpid()}.c"
    )
    staging = f"{library}.tmp.{os.getpid()}"
    with open(staging_source, "w", encoding="utf-8") as handle:
        handle.write(_C_SOURCE)
    flag_sets = (
        _CFLAGS,
        tuple(flag for flag in _CFLAGS if flag != "-march=native"),
    )
    stderr = ""
    try:
        for flags in flag_sets:
            command = [compiler, *flags, "-o", staging, staging_source]
            try:
                result = subprocess.run(
                    command, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as error:
                raise KernelUnavailableError(
                    f"REPRO_KERNEL: compiler invocation failed: {error}"
                ) from error
            if result.returncode == 0:
                os.replace(staging, library)
                os.replace(staging_source, source)
                return library
            stderr = result.stderr
    finally:
        if os.path.exists(staging_source):
            os.remove(staging_source)
    raise KernelUnavailableError(
        "REPRO_KERNEL: compilation failed:\n" + stderr
    )


class CKernel:
    """ctypes wrapper around the compiled grouped flush kernel.

    Holds reusable scratch/output buffers (grow-on-demand, grown when a
    kernel call stops and names what ran short) so a flush allocates
    nothing on the hot path.  The kernel reads and writes the matrix's
    slot tables itself; Python only marshals row ids and watermarks and
    applies the column-index changes the kernel reports.
    """

    name = "c"

    # Slot indices -- must match the C ``A_*`` enum in _C_SOURCE.
    (
        _SLOT_STORE,
        _SLOT_N_ROWS,
        _SLOT_ROW_BEGIN,
        _SLOT_ROWS,
        _SLOT_STARTS,
        _SLOT_N_UPDATES,
        _SLOT_PIVOTS,
        _SLOT_SCALES,
        _SLOT_UPD_OFFSETS,
        _SLOT_COLS,
        _SLOT_VALS,
        _SLOT_CHG_ROWS,
        _SLOT_CHG_COLS,
        _SLOT_CHG_CAP,
        _SLOT_SCRATCH_A_IDX,
        _SLOT_SCRATCH_A_VAL,
        _SLOT_SCRATCH_B_IDX,
        _SLOT_SCRATCH_B_VAL,
        _SLOT_SCRATCH_CAP,
        _SLOT_PIV_SORTED,
        _SLOT_PIV_ORDER,
        _SLOT_CAND,
        _SLOT_STATS,
        _N_SLOTS,
    ) = range(24)

    # Stats fields and stop reasons -- the C ``ST_*`` / ``NEED_*`` enums.
    _ST_FIELDS = 6
    _NEED_SCRATCH, _NEED_CHANGES, _NEED_SLOT, _NEED_POOL = 1, 2, 3, 4

    def __init__(self) -> None:
        library = _compiled_library_path()
        try:
            self._lib = _load_library(library)
            self._flush = self._lib.megh_flush_rows
            self._combine = self._lib.megh_combine_rows
            #: ``megh_plan_candidates(args, underload_threshold)``: the
            #: candidate plan's compiled path, marshaled by CandidateIndex.
            self.plan_candidates = self._lib.megh_plan_candidates
            #: ``megh_plan_mmt(args, threshold)``, by CompiledPlacement.
            self.plan_mmt = self._lib.megh_plan_mmt
        except (OSError, AttributeError) as error:  # AttributeError: symbol missing
            raise KernelUnavailableError(
                f"REPRO_KERNEL: cannot load {library}: {error}"
            ) from error
        self._flush.restype = ctypes.c_int64
        self._flush.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self.plan_candidates.restype = ctypes.c_int64
        self.plan_candidates.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self.plan_mmt.restype = ctypes.c_int64
        self.plan_mmt.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self._combine.restype = ctypes.c_int64
        self._combine.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ]
        # Row-combine output buffers (grow-on-demand; see combine_rows).
        self._cmb_idx = np.empty(256, dtype=np.int64)
        self._cmb_val = np.empty(256, dtype=np.float64)
        self._cmb_sz = 256
        self._cmb_entries = np.empty(2, dtype=np.float64)
        self._cmb_idx_ptr = self._cmb_idx.ctypes.data
        self._cmb_val_ptr = self._cmb_val.ctypes.data
        self._cmb_ent_ptr = self._cmb_entries.ctypes.data
        # Argument block: one persistent int64 array carrying every
        # scalar and buffer pointer (slot layout mirrors the C enum).
        # Pointer slots are refreshed only when a buffer is (re)allocated,
        # so a hot two-row flush updates a few integer slots and converts
        # two ctypes arguments.
        self._args = np.zeros(self._N_SLOTS, dtype=np.int64)
        self._args_ptr = self._args.ctypes.data
        self._stats = np.zeros(self._ST_FIELDS, dtype=np.int64)
        self._args[self._SLOT_STATS] = self._stats.ctypes.data
        self._chg_rows = np.empty(0, dtype=np.int64)
        self._chg_cols = np.empty(0, dtype=np.int64)
        self._grow_changes(256)
        self._scratch_a_idx = np.empty(0, dtype=np.int64)
        self._scratch_a_val = np.empty(0, dtype=np.float64)
        self._scratch_b_idx = np.empty(0, dtype=np.int64)
        self._scratch_b_val = np.empty(0, dtype=np.float64)
        self._grow_scratch(256)
        # Batch-call candidate mask scratch (sized by the staged window).
        self._piv_sorted = np.empty(0, dtype=np.int64)
        self._piv_order = np.empty(0, dtype=np.int64)
        self._cand = np.empty(0, dtype=np.uint8)
        self._mask_sz = 0
        self._grow_mask(256)
        # Identity caches: pointer slots for the staged update arrays
        # and the row/watermark vectors are refreshed only when those
        # arrays are replaced.
        self._pend_src: Tuple[object, ...] = ()
        self._rows_src: Optional[object] = None
        self._starts_src: Optional[object] = None

    # ------------------------------------------------------------------
    # Buffer growth (pointer slots refreshed with every reallocation)
    # ------------------------------------------------------------------
    def _grow_changes(self, size: int) -> None:
        size = max(size, 2 * int(self._chg_rows.shape[0]))
        self._chg_rows = np.empty(size, dtype=np.int64)
        self._chg_cols = np.empty(size, dtype=np.int64)
        args = self._args
        args[self._SLOT_CHG_ROWS] = self._chg_rows.ctypes.data
        args[self._SLOT_CHG_COLS] = self._chg_cols.ctypes.data
        args[self._SLOT_CHG_CAP] = size

    def _grow_scratch(self, size: int) -> None:
        size = max(size, 2 * int(self._scratch_a_idx.shape[0]))
        self._scratch_a_idx = np.empty(size, dtype=np.int64)
        self._scratch_a_val = np.empty(size, dtype=np.float64)
        self._scratch_b_idx = np.empty(size, dtype=np.int64)
        self._scratch_b_val = np.empty(size, dtype=np.float64)
        args = self._args
        args[self._SLOT_SCRATCH_A_IDX] = self._scratch_a_idx.ctypes.data
        args[self._SLOT_SCRATCH_A_VAL] = self._scratch_a_val.ctypes.data
        args[self._SLOT_SCRATCH_B_IDX] = self._scratch_b_idx.ctypes.data
        args[self._SLOT_SCRATCH_B_VAL] = self._scratch_b_val.ctypes.data
        args[self._SLOT_SCRATCH_CAP] = size

    def _grow_mask(self, size: int) -> None:
        size = max(size, 2 * self._mask_sz)
        self._mask_sz = size
        self._piv_sorted = np.empty(size, dtype=np.int64)
        self._piv_order = np.empty(size, dtype=np.int64)
        self._cand = np.empty(size, dtype=np.uint8)
        args = self._args
        args[self._SLOT_PIV_SORTED] = self._piv_sorted.ctypes.data
        args[self._SLOT_PIV_ORDER] = self._piv_order.ctypes.data
        args[self._SLOT_CAND] = self._cand.ctypes.data

    def combine_rows(
        self,
        matrix: "SparseMatrix",
        row_a: int,
        row_b: int,
        gamma: float,
        pivot: int,
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Fused learning-step combine: ``row_a - gamma * row_b``.

        Reads the two *settled* rows (``flush_rows`` first) straight
        from ``matrix``'s slot tables -- implicit-diagonal rows included
        -- and returns the sorted-unique, zero-free ``(columns, values)``
        of the combination plus the two column-``pivot`` entries the
        denominator needs: one C call instead of ~10 small-array NumPy
        ops.  Bit-identical to the NumPy construction in
        ``SparseLstd.update`` (see the C comment).  The returned arrays
        are views into reusable scratch: valid until the next
        ``combine_rows`` call, which is exactly the staging path's
        copy-on-enqueue lifetime.
        """
        store = matrix._store_ptr
        n = self._combine(
            store, row_a, row_b, gamma, pivot, self._cmb_sz,
            self._cmb_idx_ptr, self._cmb_val_ptr, self._cmb_ent_ptr,
        )
        if n < 0:
            size = max(-n, 2 * self._cmb_sz)
            self._cmb_sz = size
            self._cmb_idx = np.empty(size, dtype=np.int64)
            self._cmb_val = np.empty(size, dtype=np.float64)
            self._cmb_idx_ptr = self._cmb_idx.ctypes.data
            self._cmb_val_ptr = self._cmb_val.ctypes.data
            n = self._combine(
                store, row_a, row_b, gamma, pivot, self._cmb_sz,
                self._cmb_idx_ptr, self._cmb_val_ptr, self._cmb_ent_ptr,
            )
        entries = self._cmb_entries
        return (
            self._cmb_idx[:n],
            self._cmb_val[:n],
            float(entries[0]),
            float(entries[1]),
        )

    def replay_rows(
        self,
        matrix: "SparseMatrix",
        rows: np.ndarray,
        starts: np.ndarray,
        pending: "PendingUpdates",
    ) -> Tuple[int, int]:
        """Flush ``rows`` (watermarks in ``starts``) in one kernel call.

        The kernel installs every flushed row in ``matrix``'s slot
        tables itself.  What runs in Python is the column-index update
        for the columns a row gained or lost, and, when the kernel
        stops because a scratch buffer, the slot table or the pool is
        full, growing it and calling again from that row.  The flush is
        representation preserving (the logical matrix value is the same
        with the pendings staged or applied), so ``matrix.mutations`` is
        deliberately untouched.  Returns ``(applied, skipped)``.
        """
        from repro.core.sparse import PRUNE_EPSILON

        n_rows = int(rows.shape[0])
        n_updates = pending._n
        args = self._args
        if n_rows > 4 and n_updates > self._mask_sz:
            self._grow_mask(n_updates)
        old_src = self._pend_src
        upd_offsets = pending._upd_offsets
        if (
            len(old_src) != 5
            or old_src[0] is not pending._pivots
            or old_src[1] is not pending._scales
            or old_src[2] is not upd_offsets
            or old_src[3] is not pending._cols_flat
            or old_src[4] is not pending._vals_flat
        ):
            self._pend_src = (
                pending._pivots,
                pending._scales,
                upd_offsets,
                pending._cols_flat,
                pending._vals_flat,
            )
            args[self._SLOT_PIVOTS] = pending._pivots.ctypes.data
            args[self._SLOT_SCALES] = pending._scales.ctypes.data
            args[self._SLOT_UPD_OFFSETS] = upd_offsets.ctypes.data
            args[self._SLOT_COLS] = pending._cols_flat.ctypes.data
            args[self._SLOT_VALS] = pending._vals_flat.ctypes.data
        args[self._SLOT_STORE] = matrix._store_ptr
        if rows is not self._rows_src:
            self._rows_src = rows
            args[self._SLOT_ROWS] = rows.ctypes.data
        if starts is not self._starts_src:
            self._starts_src = starts
            args[self._SLOT_STARTS] = starts.ctypes.data
        args[self._SLOT_N_ROWS] = n_rows
        args[self._SLOT_N_UPDATES] = n_updates
        args[self._SLOT_ROW_BEGIN] = 0
        applied = skipped = 0
        while True:
            done = self._flush(self._args_ptr, PRUNE_EPSILON)
            (
                row_applied, row_skipped, nnz_delta, changes, need, size
            ) = self._stats.tolist()
            applied += row_applied
            skipped += row_skipped
            matrix._nnz += nnz_delta
            if changes:
                self._apply_column_changes(matrix, changes)
            if done == n_rows:
                return applied, skipped
            if need == self._NEED_SCRATCH:
                self._grow_scratch(size)
            elif need == self._NEED_CHANGES:
                self._grow_changes(size)
            else:
                matrix._repack(1 if need == self._NEED_SLOT else 0, size)
            args[self._SLOT_ROW_BEGIN] = done

    def _apply_column_changes(
        self, matrix: "SparseMatrix", changes: int
    ) -> None:
        """Apply the kernel's column-index delta (``~j`` = removed)."""
        matrix_cols = matrix._cols
        support_cache = matrix._support_cache
        for i, j in zip(
            self._chg_rows[:changes].tolist(),
            self._chg_cols[:changes].tolist(),
        ):
            if j >= 0:
                rows_of_column = matrix_cols.get(j)
                if rows_of_column is None:
                    matrix_cols[j] = {i}
                else:
                    rows_of_column.add(i)
                support_cache.pop(j, None)
            else:
                j = ~j
                rows_of_column = matrix_cols.get(j)
                if rows_of_column is not None:
                    rows_of_column.discard(i)
                    if not rows_of_column:
                        del matrix_cols[j]


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array, by one sort and a mask.

    The same values and dtype as ``np.unique(values)``, without its
    NumPy 2.x call to ``np.ma.is_masked``: the first ``np.unique`` of a
    process imports ``numpy.ma`` (about 15 ms and 0.6 MB of RSS), which
    would otherwise land inside Megh's first timed ``decide()``.
    """
    ordered = np.sort(values)
    if ordered.shape[0] < 2:
        return ordered
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def make_backend(mode: str) -> Optional[CKernel]:
    """Instantiate the backend for ``mode`` (``None`` means eager)."""
    if mode == "off":
        return None
    try:
        return CKernel()
    except KernelUnavailableError:
        if mode == "c":
            raise
        return None


def make_pending(
    mode: str, dimension: int
) -> Optional["PendingUpdates"]:
    """Build the staging engine for a new matrix (``None`` when eager)."""
    if mode not in _VALID_MODES:
        raise ConfigurationError(
            f"kernel mode {mode!r} invalid; expected one of {_VALID_MODES}"
        )
    backend = make_backend(mode)
    if backend is None:
        return None
    return PendingUpdates(backend, dimension, window=DEFAULT_WINDOW)


class PendingUpdates:
    """Staged rank-k update set for one :class:`SparseMatrix`.

    Enqueue is integer-only bookkeeping (buffering the already
    normalized right-factor arrays plus one vectorized dirty-row
    scatter); every float operation is deferred to a row's first read or
    the window-triggered full flush.  Any change to the staging state —
    enqueue, per-row flush, full flush — bumps :attr:`mutations` so
    stale derived state is detectable (MEGH011 checks this pairing
    against the declared invariant table).
    """

    def __init__(
        self,
        backend: CKernel,
        dimension: int,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if not 1 <= window <= _MAX_WINDOW:
            raise ConfigurationError(
                f"pending window must be in [1, {_MAX_WINDOW}]"
            )
        if dimension < 1:
            raise ConfigurationError("dimension must be >= 1")
        self.backend = backend
        self.window = window
        #: Staging-state change counter (enqueues and flushes).
        self.mutations = 0
        self._n = 0
        self._pivots = np.empty(window, dtype=np.int64)
        self._scales = np.empty(window, dtype=np.float64)
        self._upd_offsets = np.zeros(window + 1, dtype=np.int64)
        self._cols_flat = np.empty(max(64, window), dtype=np.int64)
        self._vals_flat = np.empty(max(64, window), dtype=np.float64)
        #: Distinct rows marked dirty this window, in marking order (the
        #: shared prediction/flush superset — see :meth:`enqueue`).
        self._pend_rows = np.empty(max(64, window), dtype=np.int64)
        self._pend_rows_n = 0
        #: Rows with unapplied staged contributions.
        self._dirty = np.zeros(dimension, dtype=bool)
        self._dirty_count = 0
        #: Row -> first staged update not yet applied to it (nonzero only
        #: for rows flushed mid-window; one byte a row, hence
        #: :data:`_MAX_WINDOW`).  Batched flushes gather their watermarks
        #: from it with one fancy index.
        self._watermark = np.zeros(dimension, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- integer bookkeeping, never a float operand; one byte a row keeps it small at d ~ 10^6
        #: Clean rows whose watermark :meth:`settle_row` advanced this
        #: window (cleared with the rest at the window's reset).
        self._advanced: List[int] = []
        # Reusable single-row / row-pair marshaling buffers (the learning
        # step flushes exactly the two rows it is about to read).
        self._one_row = np.empty(1, dtype=np.int64)
        self._one_start = np.empty(1, dtype=np.int64)
        self._two_rows = np.empty(2, dtype=np.int64)
        self._two_starts = np.empty(2, dtype=np.int64)
        # Profiling counters (read by benchmarks/bench_core_lstd.py).
        self.enqueued = 0
        self.row_flushes = 0
        self.full_flushes = 0
        self.applied = 0
        self.skipped = 0
        self.enqueue_seconds = 0.0
        self.flush_seconds = 0.0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of staged rank-1 updates."""
        return self._n

    @property
    def has_pending(self) -> bool:
        """True when any row still has unapplied contributions."""
        return self._dirty_count > 0

    def is_dirty(self, i: int) -> bool:
        """Whether row ``i`` has unapplied staged contributions."""
        return bool(self._dirty[i])

    def enqueue(
        self,
        matrix: "SparseMatrix",
        pivot: int,
        scale: float,
        columns: np.ndarray,
        values: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Stage ``scale * B[:, pivot] (x) values`` touching ``rows``.

        ``columns``/``values`` must already be normalized (sorted, unique,
        zero-free).  ``rows`` must cover every row whose replay weight can
        come from the *stored* image of column ``pivot`` (extra rows are
        fine — a zero-weight row costs one skipped lookup at replay, never
        a wrong float).  Rows reachable only through earlier *staged*
        updates may be omitted, but then they must already be dirty —
        the caller either passes the full pending superset or flushes a
        full window before reading the stored support (see
        ``SparseMatrix.rank_one_update_from_column``).
        """
        started = time.perf_counter()
        if self._n >= self.window:
            self.flush_all(matrix)
        k = self._n
        self._pivots[k] = pivot
        self._scales[k] = scale
        base = int(self._upd_offsets[k])
        count = int(columns.shape[0])
        needed = base + count
        if needed > self._cols_flat.shape[0]:
            new_cap = max(2 * self._cols_flat.shape[0], needed)
            cols_flat = np.empty(new_cap, dtype=np.int64)
            vals_flat = np.empty(new_cap, dtype=np.float64)
            cols_flat[:base] = self._cols_flat[:base]
            vals_flat[:base] = self._vals_flat[:base]
            self._cols_flat = cols_flat
            self._vals_flat = vals_flat
        self._cols_flat[base:needed] = columns
        self._vals_flat[base:needed] = values
        self._upd_offsets[k + 1] = needed
        # ``rows`` may contain duplicates (column_support skips the
        # dedup); track *distinct* newly-dirty rows — they extend the
        # single per-window dirty-row array (the shared superset every
        # prediction and flush enumerates) and keep the zero check that
        # retires the staged window exact.  One flat array instead of
        # per-update row lists: predictions would otherwise embed earlier
        # predictions and compound within the window.
        was_clean = ~self._dirty[rows]
        if was_clean.any():
            candidates = rows[was_clean]
            if candidates.shape[0] <= 16:
                # Steady state: the handful of just-flushed rows get
                # re-marked; a set dedup beats a sorting one.
                fresh = np.fromiter(
                    set(candidates.tolist()), dtype=np.int64
                )
            else:
                fresh = unique_sorted(candidates)
            self._dirty[fresh] = True
            count_new = int(fresh.shape[0])
            self._dirty_count += count_new
            end = self._pend_rows_n + count_new
            if end > self._pend_rows.shape[0]:
                grown = np.empty(
                    max(2 * self._pend_rows.shape[0], end), dtype=np.int64
                )
                grown[: self._pend_rows_n] = self._pend_rows[
                    : self._pend_rows_n
                ]
                self._pend_rows = grown
            self._pend_rows[self._pend_rows_n : end] = fresh
            self._pend_rows_n = end
        self._n = k + 1
        self.enqueued += 1
        self.mutations += 1
        self.enqueue_seconds += time.perf_counter() - started

    def pending_rows_for_column(self, j: int) -> List[np.ndarray]:
        """Rows any staged update could touch (column-independent superset).

        The union of this with the stored column support over-approximates
        the post-flush support of column ``j`` (exact modulo epsilon prunes
        and zero-weight skips) — used for theta dirty-row invalidation and
        for predicting the rows a new rank-1 update can touch.  One shared
        array for all columns: per-column precision is not worth the
        per-enqueue bookkeeping it costs (a zero-weight row is one skipped
        integer lookup at replay, never a wrong float).
        """
        if self._pend_rows_n == 0:
            return []
        return [self._pend_rows[: self._pend_rows_n]]

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def flush_row(self, matrix: "SparseMatrix", i: int) -> None:
        """Apply row ``i``'s staged contributions in submission order."""
        if not self._dirty[i]:
            return
        started = time.perf_counter()
        self._one_row[0] = i
        self._one_start[0] = self._watermark[i]
        applied, skipped = self.backend.replay_rows(
            matrix, self._one_row, self._one_start, self
        )
        self.applied += applied
        self.skipped += skipped
        self.row_flushes += 1
        self.mutations += 1
        self._dirty[i] = False
        self._dirty_count -= 1
        if self._dirty_count == 0:
            self._reset()
        else:
            self._watermark[i] = self._n
        self.flush_seconds += time.perf_counter() - started

    def settle_row(self, matrix: "SparseMatrix", i: int) -> None:
        """Bring row ``i`` up to date before a direct write to it.

        A dirty row is flushed.  A clean row skipped every update staged
        since its watermark (its weight was zero when they were staged),
        but the write may give it one, so its watermark moves to the
        current rank: those updates precede the write and must not
        replay against the written value.
        """
        if self._dirty[i]:
            self.flush_row(matrix, i)
        elif self._n:
            self._watermark[i] = self._n
            self._advanced.append(i)
            self.mutations += 1

    def flush_rows(self, matrix: "SparseMatrix", rows: np.ndarray) -> None:
        """Batched :meth:`flush_row` — one backend call for many rows."""
        if self._dirty_count == 0 or rows.shape[0] == 0:
            return
        if rows.shape[0] == 2:
            # Hot path: the learning step flushes the two rows it reads.
            i0, i1 = int(rows[0]), int(rows[1])
            if i0 == i1:
                self.flush_row(matrix, i0)
                return
            dirty = self._dirty
            first_dirty, second_dirty = bool(dirty[i0]), bool(dirty[i1])
            if not (first_dirty and second_dirty):
                if first_dirty:
                    self.flush_row(matrix, i0)
                elif second_dirty:
                    self.flush_row(matrix, i1)
                return
            started = time.perf_counter()
            pair = self._two_rows
            pair[0] = i0
            pair[1] = i1
            starts = self._two_starts
            watermark = self._watermark
            starts[0] = watermark[i0]
            starts[1] = watermark[i1]
            applied, skipped = self.backend.replay_rows(
                matrix, pair, starts, self
            )
            self.applied += applied
            self.skipped += skipped
            self.row_flushes += 2
            self.mutations += 1
            dirty[i0] = False
            dirty[i1] = False
            self._dirty_count -= 2
            if self._dirty_count == 0:
                self._reset()
            else:
                watermark[i0] = self._n
                watermark[i1] = self._n
            self.flush_seconds += time.perf_counter() - started
            return
        dirty_rows = rows[self._dirty[rows]]
        if dirty_rows.shape[0] == 0:
            return
        if dirty_rows.shape[0] == 1:
            self.flush_row(matrix, int(dirty_rows[0]))
            return
        started = time.perf_counter()
        dirty_rows = unique_sorted(dirty_rows)
        self._replay_batch(matrix, dirty_rows)
        self.row_flushes += int(dirty_rows.shape[0])
        self.mutations += 1
        self._dirty[dirty_rows] = False
        self._dirty_count -= int(dirty_rows.shape[0])
        if self._dirty_count == 0:
            self._reset()
        else:
            self._watermark[dirty_rows] = self._n
        self.flush_seconds += time.perf_counter() - started

    def flush_column(self, matrix: "SparseMatrix", j: int) -> None:
        """Flush every row that a staged update could touch in column ``j``.

        Conservative: flushes every dirty row (the staged row tracking is
        column-independent).  Column reads are off the learning hot path,
        so breadth is the right trade here.
        """
        if self._dirty_count == 0:
            return
        self.flush_rows(matrix, self._pend_rows[: self._pend_rows_n])

    def flush_all(self, matrix: "SparseMatrix") -> None:
        """Apply every staged contribution (grouped, one backend call)."""
        if self._dirty_count == 0:
            if self._n:
                self._reset()
            return
        started = time.perf_counter()
        rows = unique_sorted(self._pend_rows[: self._pend_rows_n])
        rows = rows[self._dirty[rows]]
        self._replay_batch(matrix, rows)
        self._dirty[rows] = False
        self._dirty_count = 0
        self._reset()
        self.flush_seconds += time.perf_counter() - started

    def _replay_batch(self, matrix: "SparseMatrix", rows: np.ndarray) -> None:
        """Replay a sorted batch of dirty rows from their watermarks."""
        starts = np.zeros(rows.shape[0], dtype=np.int64)
        starts[:] = self._watermark[rows]
        applied, skipped = self.backend.replay_rows(
            matrix, rows, starts, self
        )
        self.applied += applied
        self.skipped += skipped
        self.full_flushes += 1
        self.mutations += 1

    def _reset(self) -> None:
        """Drop all staged updates (every row has been flushed)."""
        self._n = 0
        self._upd_offsets[0] = 0
        # Every row with a nonzero watermark was dirty this window or
        # settled by a direct write.
        self._watermark[self._pend_rows[: self._pend_rows_n]] = 0
        if self._advanced:
            self._watermark[self._advanced] = 0
            self._advanced.clear()
        self._pend_rows_n = 0
        self.mutations += 1
