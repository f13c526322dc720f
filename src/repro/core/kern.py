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
  rank at its last flush), reading each update's left-factor weight from
  the row's own current state.
* A grouped flush kernel applies all of a dirty row's pending deltas in
  one pass: a small C kernel compiled on demand with the system compiler
  and loaded through :mod:`ctypes` (:class:`CKernel`).

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
* The C backend performs the identical double-precision operations
  (``d = scale*w`` then ``d*v`` per entry) and is compiled with
  ``-ffp-contract=off -fno-fast-math`` so no fused multiply-add can
  change a rounding.

Backend selection: ``REPRO_KERNEL=auto`` (default; the C kernel when a
compiler is available, the eager path otherwise), ``c`` (require the
compiled kernel), ``off`` (eager path, no deferral).  The eager path is
both the no-compiler fallback and the bit-identity reference the C
kernel is tested against.  :data:`DEFAULT_WINDOW` bounds the staged
rank; ``REPRO_KERNEL_CACHE`` relocates the compiled-object cache.

Flush writes to the owning matrix's backing store are *representation
preserving* — the logical matrix value does not change, so they do not
bump ``SparseMatrix.mutations`` (the counter is bumped once per rank-1
at enqueue, matching the eager path bump-for-bump).  Staging-state
changes bump :attr:`PendingUpdates.mutations` instead; meghflow's
MEGH011 checks that pairing against the declared invariant table.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
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
    "make_pending",
    "resolve_mode",
]

#: Maximum staged rank before an automatic full flush (read by
#: :func:`make_pending` at call time).
DEFAULT_WINDOW = 128

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

#: The grouped flush kernel.  One call resolves a batch of dirty rows:
#: for each row, replay the staged updates from the row's watermark in
#: submission order against a working copy of the stored row (an update
#: whose left-factor weight is zero is skipped), then emit the new row
#: plus the exact added/removed column sets (computed by a sorted merge
#: against the old row) so the Python side can maintain the column index
#: without per-row set algebra.  All arithmetic is plain double
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

/* Argument-block slot layout (must match CKernel._SLOT_* constants).
 * One persistent int64 array carries every scalar and buffer pointer so
 * the per-call ctypes dispatch converts two arguments instead of ~30 —
 * the hot path flushes one or two rows thousands of times per second
 * and the conversion overhead was measurable. */
enum {
    A_N_ROWS = 0,
    A_ROWS, A_DIAG_BASE,
    A_ROW_IDX_PTRS, A_ROW_VAL_PTRS, A_ROW_LENS, A_ROW_CAPS,
    A_STARTS,
    A_N_UPDATES,
    A_PIVOTS, A_SCALES, A_UPD_OFFSETS, A_COLS, A_VALS,
    A_OUT_OFFSETS, A_OUT_IDX, A_OUT_VAL,
    A_OUT_CAP,
    A_NEW_LENS,
    A_ADD_OFFSETS, A_ADD_IDX, A_REM_OFFSETS, A_REM_IDX,
    A_TOUCHED,
    A_SCRATCH_A_IDX, A_SCRATCH_A_VAL, A_SCRATCH_B_IDX, A_SCRATCH_B_VAL,
    A_SCRATCH_CAP,
    A_PIV_SORTED, A_PIV_ORDER, A_CAND,
    A_STATS,
    A_SLOTS
};

#define PTR(type, slot) ((type *)(intptr_t)a[slot])

/* Replay staged rank-1 updates onto each requested row.
 *
 * The row is replayed by ping-pong two-pointer merges: each applied
 * update merges the current row image (sorted) with its scaled segment
 * (sorted) into the other scratch buffer.  Entry-wise this performs
 * exactly the eager scatter's float operations in the same order —
 * matched column: value + coeff*seg, kept iff |.| > eps; segment-only
 * column: coeff*seg, kept iff |.| > eps — so the result is
 * bit-identical to applying the updates eagerly.
 *
 * The finished row is written straight back into the caller's row
 * arrays when they have capacity (new_lens[r] = length); otherwise it
 * goes to the out buffer at out_offsets[r] (new_lens[r] = ~length).
 * Unmaterialized rows (row_lens[r] < 0) start from the implicit
 * diagonal read off diag_base and always take the out-buffer path.
 *
 * Returns 0 on success, -1 on capacity overflow (caller sizes exactly,
 * so -1 indicates a marshaling bug, not a runtime condition). */
int64_t megh_flush_rows(const int64_t *a, double eps)
{
    int64_t n_rows = a[A_N_ROWS];
    const int64_t *rows = PTR(const int64_t, A_ROWS);
    const double  *diag_base = PTR(const double, A_DIAG_BASE);
    const int64_t *row_idx_ptrs = PTR(const int64_t, A_ROW_IDX_PTRS);
    const int64_t *row_val_ptrs = PTR(const int64_t, A_ROW_VAL_PTRS);
    const int64_t *row_lens = PTR(const int64_t, A_ROW_LENS);
    const int64_t *row_caps = PTR(const int64_t, A_ROW_CAPS);
    const int64_t *starts = PTR(const int64_t, A_STARTS);
    int64_t n_updates = a[A_N_UPDATES];
    const int64_t *pivots = PTR(const int64_t, A_PIVOTS);
    const double  *scales = PTR(const double, A_SCALES);
    const int64_t *upd_offsets = PTR(const int64_t, A_UPD_OFFSETS);
    const int64_t *cols = PTR(const int64_t, A_COLS);
    const double  *vals = PTR(const double, A_VALS);
    int64_t *out_offsets = PTR(int64_t, A_OUT_OFFSETS);
    int64_t *out_idx = PTR(int64_t, A_OUT_IDX);
    double  *out_val = PTR(double, A_OUT_VAL);
    int64_t out_cap = a[A_OUT_CAP];
    int64_t *new_lens = PTR(int64_t, A_NEW_LENS);
    int64_t *add_offsets = PTR(int64_t, A_ADD_OFFSETS);
    int64_t *add_idx = PTR(int64_t, A_ADD_IDX);
    int64_t *rem_offsets = PTR(int64_t, A_REM_OFFSETS);
    int64_t *rem_idx = PTR(int64_t, A_REM_IDX);
    uint8_t *touched = PTR(uint8_t, A_TOUCHED);
    int64_t *sa_idx = PTR(int64_t, A_SCRATCH_A_IDX);
    double  *sa_val = PTR(double, A_SCRATCH_A_VAL);
    int64_t *sb_idx = PTR(int64_t, A_SCRATCH_B_IDX);
    double  *sb_val = PTR(double, A_SCRATCH_B_VAL);
    int64_t scratch_cap = a[A_SCRATCH_CAP];
    int64_t *piv_sorted = PTR(int64_t, A_PIV_SORTED);
    int64_t *piv_order = PTR(int64_t, A_PIV_ORDER);
    uint8_t *cand = PTR(uint8_t, A_CAND);
    int64_t *stats = PTR(int64_t, A_STATS);
    int64_t out_pos = 0, add_pos = 0, rem_pos = 0;
    int64_t applied = 0, skipped = 0;
    add_offsets[0] = 0;
    rem_offsets[0] = 0;
    /* Batch calls amortize a per-row candidate bitmap: a sorted copy of
     * the window's pivots lets each row find its applicable updates by
     * one linear merge against its columns instead of one binary search
     * per (row, update).  Pair calls skip the setup — the sort would
     * cost more than the searches it saves. */
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
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t row_id = rows[r];
        int64_t len = row_lens[r];
        const int64_t *cur_idx;
        const double  *cur_val;
        const int64_t *orig_idx;
        int64_t n, orig_n;
        int which;  /* next merge destination: 0 -> scratch A, 1 -> B */
        if (len >= 0) {
            cur_idx = (const int64_t *)(intptr_t)row_idx_ptrs[r];
            cur_val = (const double *)(intptr_t)row_val_ptrs[r];
            n = len;
            orig_idx = cur_idx;
            orig_n = n;
            which = 0;
        } else {
            /* Implicit-diagonal row: materialize into scratch A.  The
             * diagonal is NOT part of "old" for the column-index diff:
             * it had no column-index entry, so if it survives it must
             * be reported as added. */
            double diagonal = diag_base[row_id];
            orig_idx = sa_idx;
            orig_n = 0;
            n = 0;
            if (diagonal != 0.0) {
                sa_idx[0] = row_id;
                sa_val[0] = diagonal;
                n = 1;
            }
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
        uint8_t any = 0;
        for (int64_t k = starts[r]; k < n_updates; k++) {
            if (use_mask && !cand[k]) { skipped++; continue; }
            int64_t pos = lower_bound(cur_idx, n, pivots[k]);
            double w = (pos < n && cur_idx[pos] == pivots[k])
                ? cur_val[pos] : 0.0;
            if (w == 0.0) { skipped++; continue; }
            any = 1;
            applied++;
            double coeff = scales[k] * w;
            int64_t t = upd_offsets[k], t_end = upd_offsets[k + 1];
            if (n + (t_end - t) > scratch_cap) return -1;
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
                    if (fabs(v) > eps) {
                        dst_idx[m] = sj;
                        dst_val[m++] = v;
                        if (use_mask)
                            mark_pivot(piv_sorted, piv_order, cand,
                                       n_updates, sj, k);
                    }
                } else {
                    double v = cur_val[p++] + coeff * vals[t++];
                    if (fabs(v) > eps) { dst_idx[m] = cj; dst_val[m++] = v; }
                }
            }
            while (p < n) {
                dst_idx[m] = cur_idx[p];
                dst_val[m++] = cur_val[p++];
            }
            while (t < t_end) {
                double v = coeff * vals[t];
                if (fabs(v) > eps) {
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
        touched[r] = any;
        if (!any) {
            new_lens[r] = len;
            out_offsets[r] = out_pos;
            add_offsets[r + 1] = add_pos;
            rem_offsets[r + 1] = rem_pos;
            continue;
        }
        /* Sorted merge of old stored columns vs new columns -> the exact
         * column-index delta. */
        int64_t x = 0, b = 0;
        while (x < orig_n || b < n) {
            if (x >= orig_n) { add_idx[add_pos++] = cur_idx[b++]; }
            else if (b >= n) { rem_idx[rem_pos++] = orig_idx[x++]; }
            else if (orig_idx[x] == cur_idx[b]) { x++; b++; }
            else if (orig_idx[x] < cur_idx[b]) {
                rem_idx[rem_pos++] = orig_idx[x++];
            } else { add_idx[add_pos++] = cur_idx[b++]; }
        }
        add_offsets[r + 1] = add_pos;
        rem_offsets[r + 1] = rem_pos;
        if (len >= 0 && row_caps[r] >= n) {
            /* Install in place: the caller's row arrays have room. */
            int64_t *ridx = (int64_t *)(intptr_t)row_idx_ptrs[r];
            double  *rval = (double *)(intptr_t)row_val_ptrs[r];
            memcpy(ridx, cur_idx, (size_t)n * sizeof(int64_t));
            memcpy(rval, cur_val, (size_t)n * sizeof(double));
            new_lens[r] = n;
            out_offsets[r] = out_pos;
        } else {
            if (out_pos + n > out_cap) return -1;
            memcpy(out_idx + out_pos, cur_idx, (size_t)n * sizeof(int64_t));
            memcpy(out_val + out_pos, cur_val, (size_t)n * sizeof(double));
            out_offsets[r] = out_pos;
            out_pos += n;
            new_lens[r] = ~n;
        }
    }
    stats[0] = applied;
    stats[1] = skipped;
    return 0;
}

/* One learning-step row combine: sorted-union merge of two row images
 * computing row_a - gamma * row_next, plus the two column-``piv``
 * entry lookups the Sherman-Morrison denominator needs.
 *
 * Float ops exactly match the NumPy construction in lstd.update (zeros
 * scatter, then subtract): a-only column -> val_a; shared column ->
 * val_a - gamma * val_b (one product rounding, one subtraction);
 * b-only column -> 0.0 - gamma * val_b (the literal 0.0 keeps the
 * +/-0.0 sign identical to NumPy's in-place subtract from zero).
 * Exact zeros are dropped, mirroring the ``values != 0.0`` filter the
 * staging path applies; output is sorted-unique by construction.
 *
 * Returns the output length.  Caller sizes out buffers to na + nb. */
int64_t megh_combine_rows(const int64_t *idx_a, const double *val_a,
                          int64_t na,
                          const int64_t *idx_b, const double *val_b,
                          int64_t nb,
                          double gamma, int64_t piv,
                          int64_t *out_idx, double *out_val,
                          double *entries)
{
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
"""

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


def _compiled_library_path() -> str:
    """Compile (once, cached on disk by source hash) and return the .so path.

    Tries ``_CFLAGS`` first, then once more without ``-march=native`` for
    toolchains that reject it (the flag never changes FP results, only
    speed).  Raises :class:`KernelUnavailableError` when no compiler is
    available or every attempt fails; ``auto`` mode catches this and
    falls back.
    """
    digest = hashlib.sha256(
        (_C_SOURCE + " ".join(_CFLAGS)).encode("utf-8")
    ).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    library = os.path.join(cache_dir, f"megh_kern_{digest}.so")
    if os.path.exists(library):
        return library
    compiler = _find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "REPRO_KERNEL: no C compiler (gcc/cc/clang) on PATH"
        )
    os.makedirs(cache_dir, exist_ok=True)
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

    Holds reusable scratch/output buffers (grow-on-demand) so the hot
    single-row flush allocates nothing beyond a few small arrays.
    """

    name = "c"

    def __init__(self) -> None:
        library = _compiled_library_path()
        try:
            self._lib = ctypes.CDLL(library)
            self._flush = self._lib.megh_flush_rows
            self._combine = self._lib.megh_combine_rows
        except (OSError, AttributeError) as error:  # AttributeError: symbol missing
            raise KernelUnavailableError(
                f"REPRO_KERNEL: cannot load {library}: {error}"
            ) from error
        self._flush.restype = ctypes.c_int64
        self._flush.argtypes = [ctypes.c_void_p, ctypes.c_double]
        self._combine.restype = ctypes.c_int64
        self._combine.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
            ctypes.c_double, ctypes.c_int64,
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
        # so a hot two-row flush updates six integer slots and converts
        # two ctypes arguments instead of ~30.
        self._args = np.zeros(self._N_SLOTS, dtype=np.int64)
        self._args_ptr = self._args.ctypes.data
        self._out_idx = np.empty(256, dtype=np.int64)
        self._out_val = np.empty(256, dtype=np.float64)
        self._add_idx = np.empty(256, dtype=np.int64)
        self._rem_idx = np.empty(256, dtype=np.int64)
        self._scratch_a_idx = np.empty(256, dtype=np.int64)
        self._scratch_a_val = np.empty(256, dtype=np.float64)
        self._scratch_b_idx = np.empty(256, dtype=np.int64)
        self._scratch_b_val = np.empty(256, dtype=np.float64)
        # Plain-int capacity mirrors: the hot path compares these instead
        # of reading ndarray shapes.
        self._out_sz = 256
        self._rem_sz = 256
        self._scratch_sz = 256
        # Batch-call candidate mask scratch (sized by the staged window).
        self._piv_sorted = np.empty(256, dtype=np.int64)
        self._piv_order = np.empty(256, dtype=np.int64)
        self._cand = np.empty(256, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- C ABI flag byte (uint8_t*), not numeric payload; values are 0/1 only
        self._mask_sz = 256
        self._rows_cap = 8
        self._row_idx_ptrs = np.empty(self._rows_cap, dtype=np.int64)
        self._row_val_ptrs = np.empty(self._rows_cap, dtype=np.int64)
        self._row_lens = np.empty(self._rows_cap, dtype=np.int64)
        self._row_caps = np.empty(self._rows_cap, dtype=np.int64)
        self._new_lens = np.empty(self._rows_cap, dtype=np.int64)
        self._out_offsets = np.empty(self._rows_cap + 1, dtype=np.int64)
        self._add_offsets = np.empty(self._rows_cap + 1, dtype=np.int64)
        self._rem_offsets = np.empty(self._rows_cap + 1, dtype=np.int64)
        self._touched = np.zeros(self._rows_cap, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- C ABI flag byte (uint8_t*), not numeric payload; values are 0/1 only
        self._stats = np.zeros(2, dtype=np.int64)
        args = self._args
        args[self._SLOT_OUT_IDX] = self._out_idx.ctypes.data
        args[self._SLOT_OUT_VAL] = self._out_val.ctypes.data
        args[self._SLOT_ADD_IDX] = self._add_idx.ctypes.data
        args[self._SLOT_REM_IDX] = self._rem_idx.ctypes.data
        args[self._SLOT_SCRATCH_A_IDX] = self._scratch_a_idx.ctypes.data
        args[self._SLOT_SCRATCH_A_VAL] = self._scratch_a_val.ctypes.data
        args[self._SLOT_SCRATCH_B_IDX] = self._scratch_b_idx.ctypes.data
        args[self._SLOT_SCRATCH_B_VAL] = self._scratch_b_val.ctypes.data
        args[self._SLOT_ROW_IDX_PTRS] = self._row_idx_ptrs.ctypes.data
        args[self._SLOT_ROW_VAL_PTRS] = self._row_val_ptrs.ctypes.data
        args[self._SLOT_ROW_LENS] = self._row_lens.ctypes.data
        args[self._SLOT_ROW_CAPS] = self._row_caps.ctypes.data
        args[self._SLOT_NEW_LENS] = self._new_lens.ctypes.data
        args[self._SLOT_OUT_OFFSETS] = self._out_offsets.ctypes.data
        args[self._SLOT_ADD_OFFSETS] = self._add_offsets.ctypes.data
        args[self._SLOT_REM_OFFSETS] = self._rem_offsets.ctypes.data
        args[self._SLOT_TOUCHED] = self._touched.ctypes.data
        args[self._SLOT_PIV_SORTED] = self._piv_sorted.ctypes.data
        args[self._SLOT_PIV_ORDER] = self._piv_order.ctypes.data
        args[self._SLOT_CAND] = self._cand.ctypes.data
        args[self._SLOT_STATS] = self._stats.ctypes.data
        # Identity caches: pointer slots for the staged update arrays and
        # the diagonal store are refreshed only when those arrays are
        # replaced (growth in enqueue / a different matrix or pending).
        self._pend_src: Tuple[object, ...] = ()
        self._diag_src: Optional[object] = None
        self._rows_src: Optional[object] = None
        self._starts_src: Optional[object] = None

    # Slot indices — must match the C enum in _C_SOURCE.
    (
        _SLOT_N_ROWS,
        _SLOT_ROWS,
        _SLOT_DIAG_BASE,
        _SLOT_ROW_IDX_PTRS,
        _SLOT_ROW_VAL_PTRS,
        _SLOT_ROW_LENS,
        _SLOT_ROW_CAPS,
        _SLOT_STARTS,
        _SLOT_N_UPDATES,
        _SLOT_PIVOTS,
        _SLOT_SCALES,
        _SLOT_UPD_OFFSETS,
        _SLOT_COLS,
        _SLOT_VALS,
        _SLOT_OUT_OFFSETS,
        _SLOT_OUT_IDX,
        _SLOT_OUT_VAL,
        _SLOT_OUT_CAP,
        _SLOT_NEW_LENS,
        _SLOT_ADD_OFFSETS,
        _SLOT_ADD_IDX,
        _SLOT_REM_OFFSETS,
        _SLOT_REM_IDX,
        _SLOT_TOUCHED,
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
    ) = range(34)

    def combine_rows(
        self,
        raw_a: Tuple[int, int, int],
        raw_b: Tuple[int, int, int],
        gamma: float,
        pivot: int,
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Fused learning-step combine: ``row_a - gamma * row_next``.

        Takes the two *settled* rows as raw ``(idx pointer, val pointer,
        length)`` triples (see ``SparseMatrix._row_raw``) and returns the
        sorted-unique, zero-free ``(columns, values)`` of the combination
        plus the two column-``pivot`` entries the denominator needs —
        one C call instead of ~10 small-array NumPy ops.  Bit-identical
        to the NumPy construction in ``SparseLstd.update`` (see the C
        comment).  The returned arrays are views into reusable scratch:
        valid until the next ``combine_rows`` call, which is exactly the
        staging path's copy-on-enqueue lifetime.
        """
        idx_a, val_a, na = raw_a
        idx_b, val_b, nb = raw_b
        total = na + nb
        if total > self._cmb_sz:
            size = max(total, 2 * self._cmb_sz)
            self._cmb_sz = size
            self._cmb_idx = np.empty(size, dtype=np.int64)
            self._cmb_val = np.empty(size, dtype=np.float64)
            self._cmb_idx_ptr = self._cmb_idx.ctypes.data
            self._cmb_val_ptr = self._cmb_val.ctypes.data
        n = self._combine(
            idx_a, val_a, na,
            idx_b, val_b, nb,
            gamma, pivot,
            self._cmb_idx_ptr, self._cmb_val_ptr, self._cmb_ent_ptr,
        )
        entries = self._cmb_entries
        return (
            self._cmb_idx[:n],
            self._cmb_val[:n],
            float(entries[0]),
            float(entries[1]),
        )

    def _ensure_rows(self, n_rows: int) -> None:
        if n_rows <= self._rows_cap:
            return
        cap = max(n_rows, 2 * self._rows_cap)
        self._rows_cap = cap
        self._row_idx_ptrs = np.empty(cap, dtype=np.int64)
        self._row_val_ptrs = np.empty(cap, dtype=np.int64)
        self._row_lens = np.empty(cap, dtype=np.int64)
        self._row_caps = np.empty(cap, dtype=np.int64)
        self._new_lens = np.empty(cap, dtype=np.int64)
        self._out_offsets = np.empty(cap + 1, dtype=np.int64)
        self._add_offsets = np.empty(cap + 1, dtype=np.int64)
        self._rem_offsets = np.empty(cap + 1, dtype=np.int64)
        self._touched = np.zeros(cap, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- C ABI flag byte (uint8_t*), not numeric payload; values are 0/1 only
        args = self._args
        args[self._SLOT_ROW_IDX_PTRS] = self._row_idx_ptrs.ctypes.data
        args[self._SLOT_ROW_VAL_PTRS] = self._row_val_ptrs.ctypes.data
        args[self._SLOT_ROW_LENS] = self._row_lens.ctypes.data
        args[self._SLOT_ROW_CAPS] = self._row_caps.ctypes.data
        args[self._SLOT_NEW_LENS] = self._new_lens.ctypes.data
        args[self._SLOT_OUT_OFFSETS] = self._out_offsets.ctypes.data
        args[self._SLOT_ADD_OFFSETS] = self._add_offsets.ctypes.data
        args[self._SLOT_REM_OFFSETS] = self._rem_offsets.ctypes.data
        args[self._SLOT_TOUCHED] = self._touched.ctypes.data

    def _ensure_out(self, out_cap: int, rem_cap: int, scratch_cap: int) -> None:
        args = self._args
        if self._out_sz < out_cap:
            size = max(out_cap, 2 * self._out_sz)
            self._out_sz = size
            self._out_idx = np.empty(size, dtype=np.int64)
            self._out_val = np.empty(size, dtype=np.float64)
            self._add_idx = np.empty(size, dtype=np.int64)
            args[self._SLOT_OUT_IDX] = self._out_idx.ctypes.data
            args[self._SLOT_OUT_VAL] = self._out_val.ctypes.data
            args[self._SLOT_ADD_IDX] = self._add_idx.ctypes.data
        if self._rem_sz < rem_cap:
            size = max(rem_cap, 2 * self._rem_sz)
            self._rem_sz = size
            self._rem_idx = np.empty(size, dtype=np.int64)
            args[self._SLOT_REM_IDX] = self._rem_idx.ctypes.data
        if self._scratch_sz < scratch_cap:
            size = max(scratch_cap, 2 * self._scratch_sz)
            self._scratch_sz = size
            self._scratch_a_idx = np.empty(size, dtype=np.int64)
            self._scratch_a_val = np.empty(size, dtype=np.float64)
            self._scratch_b_idx = np.empty(size, dtype=np.int64)
            self._scratch_b_val = np.empty(size, dtype=np.float64)
            args[self._SLOT_SCRATCH_A_IDX] = self._scratch_a_idx.ctypes.data
            args[self._SLOT_SCRATCH_A_VAL] = self._scratch_a_val.ctypes.data
            args[self._SLOT_SCRATCH_B_IDX] = self._scratch_b_idx.ctypes.data
            args[self._SLOT_SCRATCH_B_VAL] = self._scratch_b_val.ctypes.data

    def replay_rows(
        self,
        matrix: "SparseMatrix",
        rows: np.ndarray,
        starts: np.ndarray,
        pending: "PendingUpdates",
    ) -> Tuple[int, int]:
        """Flush ``rows`` (watermarks in ``starts``) in one kernel call.

        All staging buffers are persistent and grow-on-demand: the hot
        case (one or two rows flushed by a learning step's row reads)
        allocates nothing beyond the gathered diagonal.
        """
        from repro.core.sparse import PRUNE_EPSILON, _MIN_CAPACITY, _Row

        n_rows = int(rows.shape[0])
        n_updates = pending._n
        self._ensure_rows(n_rows)
        args = self._args
        matrix_diag = matrix._diag
        matrix_rows = matrix._rows
        row_list = rows.tolist()
        upd_offsets = pending._upd_offsets
        total = int(upd_offsets[n_updates])
        # One pass: record each stored row's array pointers (the kernel
        # reads them in place — no staging copies; the pointers are the
        # values cached on ``_Row`` at allocation time) and accumulate
        # the worst-case output capacity (stored entries + implicit
        # diagonal + every scattered segment from the watermark on).
        row_idx_ptrs = self._row_idx_ptrs
        row_val_ptrs = self._row_val_ptrs
        row_lens = self._row_lens
        row_caps = self._row_caps
        if n_rows <= 4:
            # Hot path (learning-step pair flush): scalar stores beat
            # the vectorized bulk path below at this size.
            start_list = starts.tolist()
            stored_total = 0
            out_cap = 0
            scratch_cap = 1
            for r, i in enumerate(row_list):
                row = matrix_rows.get(i)
                if row is not None:
                    n = row.n
                    row_lens[r] = n
                    row_caps[r] = row.idx.shape[0]
                    row_idx_ptrs[r] = row.idx_data
                    row_val_ptrs[r] = row.val_data
                    stored_total += n
                else:
                    n = 0
                    row_lens[r] = -1
                    row_caps[r] = 0
                cap = n + (total - int(upd_offsets[start_list[r]])) + 1
                out_cap += cap
                if cap > scratch_cap:
                    scratch_cap = cap
            rem_cap = stored_total + n_rows
        else:
            # Batch path (window-full flush over many rows): build plain
            # lists then bulk-assign — per-element numpy scalar stores
            # dominate the large-batch prep otherwise.
            lens_list: List[int] = []
            caps_list: List[int] = []
            idx_ptr_list: List[int] = []
            val_ptr_list: List[int] = []
            lens_append = lens_list.append
            caps_append = caps_list.append
            idx_append = idx_ptr_list.append
            val_append = val_ptr_list.append
            rows_get = matrix_rows.get
            for i in row_list:
                row = rows_get(i)
                if row is not None:
                    lens_append(row.n)
                    caps_append(row.idx.shape[0])
                    idx_append(row.idx_data)
                    val_append(row.val_data)
                else:
                    lens_append(-1)
                    caps_append(0)
                    idx_append(0)
                    val_append(0)
            lens_arr = np.array(lens_list, dtype=np.int64)
            row_lens[:n_rows] = lens_arr
            row_caps[:n_rows] = caps_list
            row_idx_ptrs[:n_rows] = idx_ptr_list
            row_val_ptrs[:n_rows] = val_ptr_list
            stored = np.maximum(lens_arr, 0)
            caps_arr = stored + (total - upd_offsets[starts]) + 1
            out_cap = int(caps_arr.sum())
            scratch_cap = int(caps_arr.max())
            rem_cap = int(stored.sum()) + n_rows
            if n_updates > self._mask_sz:
                size = max(n_updates, 2 * self._mask_sz)
                self._mask_sz = size
                self._piv_sorted = np.empty(size, dtype=np.int64)
                self._piv_order = np.empty(size, dtype=np.int64)
                self._cand = np.empty(size, dtype=np.uint8)  # meghlint: ignore[MEGH012] -- C ABI flag byte (uint8_t*), not numeric payload; values are 0/1 only
                args[self._SLOT_PIV_SORTED] = self._piv_sorted.ctypes.data
                args[self._SLOT_PIV_ORDER] = self._piv_order.ctypes.data
                args[self._SLOT_CAND] = self._cand.ctypes.data
        if (
            out_cap > self._out_sz
            or rem_cap > self._rem_sz
            or scratch_cap > self._scratch_sz
        ):
            self._ensure_out(out_cap, rem_cap, scratch_cap)
        if matrix_diag is not self._diag_src:
            self._diag_src = matrix_diag
            args[self._SLOT_DIAG_BASE] = matrix_diag.ctypes.data
        # touched / stats need no reset: the kernel writes every slot
        # [0, n_rows) and both stat fields unconditionally.
        touched = self._touched
        stats = self._stats
        old_src = self._pend_src
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
        args[self._SLOT_N_ROWS] = n_rows
        if rows is not self._rows_src:
            self._rows_src = rows
            args[self._SLOT_ROWS] = rows.ctypes.data
        if starts is not self._starts_src:
            self._starts_src = starts
            args[self._SLOT_STARTS] = starts.ctypes.data
        args[self._SLOT_N_UPDATES] = n_updates
        args[self._SLOT_OUT_CAP] = out_cap
        args[self._SLOT_SCRATCH_CAP] = scratch_cap
        status = self._flush(self._args_ptr, PRUNE_EPSILON)
        if status != 0:
            raise RuntimeError(
                "megh_flush_rows capacity overflow (marshaling bug)"
            )
        # Install the flushed rows and maintain the column index / nnz.
        # The common case was already installed in place by the kernel
        # (new_lens[r] >= 0); the out-buffer path (new_lens[r] = ~length)
        # covers rows whose arrays lacked capacity and rows that were
        # unmaterialized (implicit diagonal only).  These writes are
        # representation preserving (the logical matrix value is the same
        # with the pendings staged or applied), so the matrix mutation
        # counter is deliberately untouched.
        out_offsets = self._out_offsets
        new_lens = self._new_lens
        add_offsets = self._add_offsets
        rem_offsets = self._rem_offsets
        out_idx = self._out_idx
        out_val = self._out_val
        add_idx = self._add_idx
        rem_idx = self._rem_idx
        matrix_cols = matrix._cols
        nnz_delta = 0
        if n_rows <= 8:
            touched_rows = [r for r in range(n_rows) if touched[r]]
        else:
            touched_rows = np.nonzero(touched[:n_rows])[0].tolist()
        for r in touched_rows:
            i = row_list[r]
            code = int(new_lens[r])
            row = matrix_rows.get(i)
            if code >= 0:
                # Installed in place by the kernel; just commit the
                # length and drop the row if it emptied out.
                nnz_delta += code - row.n
                if code == 0:
                    del matrix_rows[i]
                else:
                    row.n = code
            else:
                n_new = ~code
                start = int(out_offsets[r])
                end = start + n_new
                if row is None:
                    old_count = 1 if matrix_diag[i] != 0.0 else 0  # meghlint: ignore[MEGH003] -- exact store sentinel: 0.0 means "absent"
                    matrix_diag[i] = 0.0
                else:
                    old_count = row.n
                nnz_delta += n_new - old_count
                if n_new == 0:
                    if row is not None:
                        del matrix_rows[i]
                else:
                    if row is None or row.idx.shape[0] < n_new:
                        row = _Row(capacity=max(_MIN_CAPACITY, 2 * n_new))
                        matrix_rows[i] = row
                    row.idx[:n_new] = out_idx[start:end]
                    row.val[:n_new] = out_val[start:end]
                    row.n = n_new
            a0, a1 = int(add_offsets[r]), int(add_offsets[r + 1])
            if a1 > a0:
                support_cache = matrix._support_cache
                for j in add_idx[a0:a1].tolist():
                    rows_of_column = matrix_cols.get(j)
                    if rows_of_column is None:
                        matrix_cols[j] = {i}
                    else:
                        rows_of_column.add(i)
                    support_cache.pop(j, None)
            r0, r1 = int(rem_offsets[r]), int(rem_offsets[r + 1])
            if r1 > r0:
                for j in rem_idx[r0:r1].tolist():
                    rows_of_column = matrix_cols.get(j)
                    if rows_of_column is not None:
                        rows_of_column.discard(i)
                        if not rows_of_column:
                            del matrix_cols[j]
        matrix._nnz += nnz_delta
        return int(stats[0]), int(stats[1])


def _make_backend(mode: str) -> Optional[CKernel]:
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
    backend = _make_backend(mode)
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
        if window < 1:
            raise ConfigurationError("pending window must be >= 1")
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
        #: Row -> first staged update not yet applied to it (rows flushed
        #: mid-window; absent means 0).
        self._row_start: Dict[int, int] = {}
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
                # re-marked; a set dedup beats np.unique's overhead.
                fresh = np.fromiter(
                    set(candidates.tolist()), dtype=np.int64
                )
            else:
                fresh = np.unique(candidates)
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
        self._one_start[0] = self._row_start.get(i, 0)
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
            self._row_start[i] = self._n
        self.flush_seconds += time.perf_counter() - started

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
            row_start = self._row_start
            if row_start:
                starts[0] = row_start.get(i0, 0)
                starts[1] = row_start.get(i1, 0)
            else:
                starts[0] = 0
                starts[1] = 0
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
                watermark = self._n
                row_start[i0] = watermark
                row_start[i1] = watermark
            self.flush_seconds += time.perf_counter() - started
            return
        dirty_rows = rows[self._dirty[rows]]
        if dirty_rows.shape[0] == 0:
            return
        if dirty_rows.shape[0] == 1:
            self.flush_row(matrix, int(dirty_rows[0]))
            return
        started = time.perf_counter()
        dirty_rows = np.unique(dirty_rows)
        self._replay_batch(matrix, dirty_rows)
        self.row_flushes += int(dirty_rows.shape[0])
        self.mutations += 1
        self._dirty[dirty_rows] = False
        self._dirty_count -= int(dirty_rows.shape[0])
        if self._dirty_count == 0:
            self._reset()
        else:
            watermark = self._n
            row_start = self._row_start
            for i in dirty_rows.tolist():
                row_start[i] = watermark
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
        rows = np.unique(self._pend_rows[: self._pend_rows_n])
        rows = rows[self._dirty[rows]]
        self._replay_batch(matrix, rows)
        self._dirty[rows] = False
        self._dirty_count = 0
        self._reset()
        self.flush_seconds += time.perf_counter() - started

    def _replay_batch(self, matrix: "SparseMatrix", rows: np.ndarray) -> None:
        """Replay a sorted batch of dirty rows from their watermarks."""
        row_start = self._row_start
        if row_start:
            starts = np.asarray(
                [row_start.get(i, 0) for i in rows.tolist()], dtype=np.int64
            )
        else:
            starts = np.zeros(rows.shape[0], dtype=np.int64)
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
        self._pend_rows_n = 0
        self._row_start.clear()
        self.mutations += 1
