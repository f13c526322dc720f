"""Every-index slot retirement: the algorithm ``retire_actions`` replaced.

:func:`retire_actions` visits every retired index — learned or
pristine — with the row clear, column clear and snap, then deletes the
``z`` entries through the mapping protocol and invalidates the whole
theta cache.  :meth:`repro.core.lstd.SparseLstd.retire_actions` skips
the pristine indices and invalidates only the rows it changed; its
``B``, ``z`` and counters must equal this oracle's bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.lstd import DENOMINATOR_FLOOR, SparseLstd
from repro.errors import ConfigurationError


def retire_actions(lstd: SparseLstd, indices: Iterable[int]) -> int:
    """Retire ``indices`` from ``lstd`` index by index; return the count."""
    if lstd._t_rows is None:
        raise ConfigurationError(
            "retire_actions requires operator tracking; call "
            "enable_operator_tracking() before the first update"
        )
    retired = sorted({int(i) for i in indices})
    for i in retired:
        lstd._check_action(i)
    if not retired:
        return 0
    lstd._sync_with_b()
    B = lstd.B
    t_rows, t_cols = lstd._t_rows, lstd._t_cols
    B.flush_pending()

    # (1) row clears.
    for i in retired:
        trow = t_rows.get(i)
        if trow:
            bu = B.column(i)
            denominator = 1.0
            vtb: Dict[int, float] = {}
            for j in sorted(trow):
                weight = trow[j]
                denominator -= weight * B.get(j, i)
                row_idx, row_val = B.row_view(j)
                for column, value in zip(row_idx.tolist(), row_val.tolist()):
                    vtb[column] = vtb.get(column, 0.0) + weight * value
            if abs(denominator) < DENOMINATOR_FLOOR:
                lstd.retirements_skipped += 1
            else:
                B.rank_one_update(bu, vtb, scale=1.0 / denominator)
        if trow is not None:
            for j in list(trow):
                rows_of = t_cols.get(j)
                if rows_of is not None:
                    rows_of.discard(i)
                    if not rows_of:
                        del t_cols[j]
            del t_rows[i]

    # (2) column clears.
    for j in retired:
        rows_of = t_cols.get(j)
        if not rows_of:
            t_cols.pop(j, None)
            continue
        entries = [(r, t_rows[r][j]) for r in sorted(rows_of)]
        bw: Dict[int, float] = {}
        denominator = 1.0
        for r, weight in entries:
            denominator -= weight * B.get(j, r)
            for row_index, value in B.column(r).items():
                bw[row_index] = bw.get(row_index, 0.0) + weight * value
        row_j = B.row(j)
        if abs(denominator) < DENOMINATOR_FLOOR:
            lstd.retirements_skipped += 1
        else:
            B.rank_one_update(bw, row_j, scale=1.0 / denominator)
        for r, _ in entries:
            remaining = t_rows[r]
            del remaining[j]
            if not remaining:
                del t_rows[r]
        del t_cols[j]

    # (3) snap the retired block of B to (1/delta) I.
    inverse_delta = 1.0 / lstd.delta
    for i in retired:
        for j in list(B.row(i)):
            B.set(i, j, 0.0)
        for r in B.rows_with_column(i):
            B.set(r, i, 0.0)
        B.set(i, i, inverse_delta)

    for i in retired:
        lstd.z.pop(i, None)
    lstd.invalidate_theta_cache()
    lstd._b_mutations_seen = B.mutations
    lstd.retirements_applied += 1
    return len(retired)
