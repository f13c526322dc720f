/* The compiled kernel library of repro.core.kern: the grouped rank-k
 * flush, the learning step's row combine, Megh's candidate plan and
 * MMT's placement pass.  Every block index it reads (S_*, A_*, ST_*,
 * NEED_*, P_*, M_*) is declared once in kern.py, which compiles this
 * file behind a prelude of enums emitted from those declarations. */

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
    const uint8_t *vm_active = PTR(const uint8_t, P_VM_ACTIVE);
    const uint8_t *overloaded = PTR(const uint8_t, P_OVERLOADED);
    uint8_t *seen = PTR(uint8_t, P_SEEN);
    int64_t *bucket = PTR(int64_t, P_BUCKET);
    int64_t *by_host = PTR(int64_t, P_BY_HOST);
    int64_t *under = PTR(int64_t, P_UNDER);
    int64_t *under_sorted = PTR(int64_t, P_UNDER_SORTED);
    int64_t *level = PTR(int64_t, P_LEVEL);
    int64_t *dests = PTR(int64_t, P_DESTS);
    int64_t *top = PTR(int64_t, P_TOP);
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
    const int64_t *bounds = PTR(const int64_t, M_BOUNDS);
    const int64_t *by_host = PTR(const int64_t, M_BY_HOST);
    const int64_t *relief = PTR(const int64_t, M_RELIEF);
    const int64_t *hosts = PTR(const int64_t, M_HOSTS);
    const uint8_t *excluded = PTR(const uint8_t, M_EXCLUDED);
    const uint8_t *asleep = PTR(const uint8_t, M_ASLEEP);
    uint8_t *evacuated = PTR(uint8_t, M_EVACUATED);
    int64_t *out = PTR(int64_t, M_OUT);
    Mmt s = {
        .n_pms = n_pms, .threshold = threshold,
        .host_of = PTR(const int64_t, M_HOST_OF),
        .model_of = PTR(const int64_t, M_MODEL_OF),
        .vm_ram = PTR(const double, M_VM_RAM),
        .vm_demand = PTR(const double, M_VM_DEMAND),
        .vm_mips = PTR(const double, M_VM_MIPS),
        .pm_mips = PTR(const double, M_PM_MIPS),
        .ram_free = PTR(const double, M_RAM_FREE),
        .pm_demand = PTR(const double, M_PM_DEMAND),
        .models = PTR(const double, M_MODELS),
        .wake = PTR(double, M_WAKE), .before = PTR(double, M_BEFORE),
        .pend_mips = PTR(double, M_PEND_MIPS),
        .pend_ram = PTR(double, M_PEND_RAM),
        .order = PTR(int64_t, M_ORDER), .touched = PTR(int64_t, M_TOUCHED),
    };
    if (n_relief < 0 || n_relief > n_vms || n_hosts < 0 || n_hosts > n_pms
        || bounds[0] != 0 || bounds[n_pms] > n_vms
        || !ids_below(by_host, bounds[n_pms], n_vms)
        || !ids_below(relief, n_relief, n_vms)
        || !ids_below(hosts, n_hosts, n_pms))
        return -1;
    for (p = 0; p < n_pms; p++)
        if (bounds[p + 1] < bounds[p]) return -1;
    for (p = 0; p < n_pms; p++) {  /* a sleeping host costs P(0) to wake */
        s.wake[p] =
            asleep[p] ? model_power(s.models + 12 * s.model_of[p], 0.0) : 0.0;
        evacuated[p] = 0;
    }
    release(&s, 1);
    n_out = pabfd(&s, relief, n_relief, excluded, 0, out);
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
