"""Declared dimension vocabulary, shape tables, and ABI contracts.

meghshape's abstract values are symbolic shapes over the fleet's named
dimensions.  Exactly like the MEGH011/MEGH012 tables in
:mod:`repro.analysis.flow.invariants`, everything here is a
*specification*: the analyzers check the code against these
declarations, and the self-analysis test fails loudly when a refactor
changes a buffer without updating its declaration in the same PR.

Dimension vocabulary
--------------------
``N``  number of VMs (``DatacenterArrays.num_vms``)
``M``  number of PMs (``DatacenterArrays.num_pms``)
``K``  candidate rows — source VMs selected for one plan
``W``  staged-update window (``PendingUpdates.window``)
``d``  basis dimension (``SparseMatrix.dimension``, d = N x M)
``R``  dirty-row batch handed to one kernel flush
``S``  flattened staged column entries across the window
``1``  broadcastable unit axis (an *explicit* ``None`` index)
``2``  literal two-element marshaling pair
``?``  statically unknown extent (always compatible)

Intentional broadcasts are declared in the code, not here: inserting an
explicit unit axis (``vec[None, :]`` / ``vec[:, None]``) is the
declaration, and MEGH019 stays silent for it.  An implicit rank
promotion that is genuinely intended can instead carry a
``# meghlint: ignore[MEGH019]`` line suppression (checked for staleness
by MEGH013 like every other directive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.flow.invariants import (
    AXIS_SIZE_NAMES,
    FIELD_TYPES,
    METHOD_TYPES,
)

__all__ = [
    "DIMENSIONS",
    "DIM_SIZE_NAMES",
    "ShapeInfo",
    "SHAPE_FIELD_TYPES",
    "SHAPE_METHOD_TYPES",
    "ParamContract",
    "ShapeContract",
    "SHAPE_CONTRACTS",
    "ABI_BUFFER_DTYPES",
    "render_dims",
]

#: Dimension symbol -> meaning (documentation + ``--list-rules`` docs).
DIMENSIONS: Dict[str, str] = {
    "N": "number of VMs (DatacenterArrays.num_vms)",
    "M": "number of PMs (DatacenterArrays.num_pms)",
    "K": "candidate rows (source VMs) in one CandidatePlan",
    "W": "staged-update window (PendingUpdates.window)",
    "d": "basis dimension (SparseMatrix.dimension, d = N*M)",
    "R": "dirty-row batch handed to one kernel flush",
    "S": "flattened staged column entries across the window",
    "1": "broadcastable unit axis (explicit None index)",
    "2": "literal two-element marshaling pair",
    "?": "statically unknown extent (compatible with anything)",
}

#: Size-expression names that reveal a freshly allocated array's
#: dimension (extends meghflow's ``AXIS_SIZE_NAMES``):
#: ``np.empty(window, ...)`` is a W-vector, ``np.zeros(dimension, ...)``
#: a d-vector, ``np.empty(num_rows, ...)`` a K-vector.
DIM_SIZE_NAMES: Dict[str, str] = {
    **AXIS_SIZE_NAMES,
    "num_rows": "K",
    "window": "W",
    "dimension": "d",
}


@dataclass(frozen=True)
class ShapeInfo:
    """Abstract ndarray value: symbolic shape, dtype, and buffer facts.

    ``dims`` is a tuple of dimension symbols from :data:`DIMENSIONS`
    (or a decimal literal for a constant extent).  ``contiguous`` and
    ``owned`` are *proofs*, not guesses: ``True`` means the analysis
    can witness C-contiguity / buffer ownership from the construction
    site; ``False`` means "not proven" (e.g. any sliced view).
    """

    dims: Tuple[str, ...]
    dtype: str
    contiguous: bool = True
    owned: bool = True

    @property
    def rank(self) -> int:
        return len(self.dims)


def render_dims(dims: Tuple[str, ...]) -> str:
    """Human-readable ``(K, M)`` rendering for messages."""
    if len(dims) == 1:
        return f"({dims[0]},)"
    return "(" + ", ".join(dims) + ")"


def _vector(dtype: str, axis: str) -> ShapeInfo:
    return ShapeInfo((axis,), dtype)


#: Attribute name -> declared abstract value.  Seeded from meghflow's
#: 1-d ``FIELD_TYPES`` (every DatacenterArrays vector is an owned,
#: C-contiguous ``np.zeros`` allocation) and extended with the 2-d
#: candidate scratch and the deferred-kernel staging state.
SHAPE_FIELD_TYPES: Dict[str, ShapeInfo] = {
    name: _vector(array_type.dtype, array_type.axis)
    for name, array_type in FIELD_TYPES.items()
}
SHAPE_FIELD_TYPES.update(
    {
        # CandidateIndex static budget vectors (per-PM headroom).
        "_mips_budget": _vector("float64", "M"),
        "_mips_budget_full": _vector("float64", "M"),
        "_bw_budget": _vector("float64", "M"),
        "_bw_budget_full": _vector("float64", "M"),
        # CandidateIndex K x M broadcast scratch (reused across steps).
        "_feas": ShapeInfo(("K", "M"), "bool"),
        "_aux": ShapeInfo(("K", "M"), "bool"),
        "_tmp": ShapeInfo(("K", "M"), "float64"),
        # PendingUpdates staged-window state (repro/core/kern.py).
        "_pivots": _vector("int64", "W"),
        "_scales": _vector("float64", "W"),
        "_upd_offsets": _vector("int64", "W"),
        "_cols_flat": _vector("int64", "S"),
        "_vals_flat": _vector("float64", "S"),
        "_pend_rows": _vector("int64", "R"),
        # Reusable one/two-row flush marshaling buffers.
        "_one_row": _vector("int64", "1"),
        "_one_start": _vector("int64", "1"),
        "_two_rows": _vector("int64", "2"),
        "_two_starts": _vector("int64", "2"),
        # SparseMatrix implicit-diagonal store.
        "_diag": _vector("float64", "d"),
    }
)

#: Method name -> declared return value (mirrors ``METHOD_TYPES``; all
#: of the DatacenterArrays queries return owned 1-d aggregates).  The
#: shape table sharpens axes MEGH012's coarser N/M vocabulary cannot
#: express: ``theta()`` is a d-vector, not merely "some array".
SHAPE_METHOD_TYPES: Dict[str, ShapeInfo] = {
    name: _vector(array_type.dtype, array_type.axis)
    for name, array_type in METHOD_TYPES.items()
}
SHAPE_METHOD_TYPES.update(
    {
        "theta": _vector("float64", "d"),
        "column_support": _vector("int64", "?"),
    }
)


@dataclass(frozen=True)
class ParamContract:
    """Contract for one parameter: shape/dtype plus buffer obligations.

    ``require_owned`` / ``require_contiguous`` are *caller* obligations
    (MEGH022 reports a violation when a value proven to be a view or
    non-contiguous flows in); inside the callee the parameter is assumed
    to satisfy them, which is what lets MEGH021 certify ``rows.ctypes``
    reads against the contract instead of the (invisible) call site.
    """

    shape: ShapeInfo
    require_owned: bool = False
    require_contiguous: bool = False


@dataclass(frozen=True)
class ShapeContract:
    """Declared signature contract for one function or method.

    ``params`` lists the declared parameters **after** ``self`` in
    order; ``None`` entries are unchecked (scalars, objects).  Matching
    is by method/function *name* at attribute-call sites — the same
    name-keyed convention ``METHOD_TYPES`` uses — so the names chosen
    here must be unique enough across the hot packages (the
    self-analysis test keeps that honest).
    """

    qualname: str
    params: Tuple[Tuple[str, Optional[ParamContract]], ...]


_INT_VEC = ParamContract(ShapeInfo(("?",), "int64"))
_INT_VEC_ABI = ParamContract(
    ShapeInfo(("?",), "int64"),
    require_owned=True,
    require_contiguous=True,
)

#: Method name -> declared call-boundary contract (MEGH022 checks call
#: sites; MEGH021 trusts the contract when certifying parameter reads
#: at the C ABI boundary).
SHAPE_CONTRACTS: Dict[str, ShapeContract] = {
    # Deferred-kernel staging: columns/values must be parallel 1-d
    # int64/float64 vectors (enqueue copies them, so views are fine).
    "enqueue": ShapeContract(
        qualname="repro.core.kern.PendingUpdates.enqueue",
        params=(
            ("matrix", None),
            ("pivot", None),
            ("scale", None),
            ("columns", _INT_VEC),
            ("values", ParamContract(ShapeInfo(("?",), "float64"))),
            ("rows", _INT_VEC),
        ),
    ),
    # Kernel flush: ``rows``/``starts`` cross the C ABI — they must be
    # owned, C-contiguous int64 (their ``.ctypes.data`` is read raw).
    "replay_rows": ShapeContract(
        qualname="repro.core.kern.CKernel.replay_rows",
        params=(
            ("matrix", None),
            ("rows", _INT_VEC_ABI),
            ("starts", _INT_VEC_ABI),
            ("pending", None),
        ),
    ),
    "_replay_batch": ShapeContract(
        qualname="repro.core.kern.PendingUpdates._replay_batch",
        params=(
            ("matrix", None),
            ("rows", _INT_VEC_ABI),
        ),
    ),
    "flush_rows": ShapeContract(
        qualname="repro.core.kern.PendingUpdates.flush_rows",
        params=(
            ("matrix", None),
            ("rows", _INT_VEC),
        ),
    ),
    # Candidate pipeline internals: the K-row plan vectors.
    "_feasibility": ShapeContract(
        qualname="repro.core.candidates.CandidateIndex._feasibility",
        params=(
            ("arrays", None),
            ("vm_rows", ParamContract(ShapeInfo(("K",), "int64"))),
            ("sources", ParamContract(ShapeInfo(("K",), "int64"))),
            ("mandatory", ParamContract(ShapeInfo(("K",), "bool"))),
        ),
    ),
    "_candidate_vm_rows": ShapeContract(
        qualname="repro.core.candidates.CandidateIndex._candidate_vm_rows",
        params=(
            ("arrays", None),
            ("overloaded", ParamContract(ShapeInfo(("M",), "bool"))),
            ("util", ParamContract(ShapeInfo(("M",), "float64"))),
        ),
    ),
}

#: ABI buffer attribute -> exact C-side dtype.  Every attribute listed
#: here may have ``.ctypes.data`` taken and handed to the compiled
#: kernel; MEGH021 requires each of its assignment sites to be a
#: provably owning, C-contiguous constructor (``np.empty/zeros/ones``
#: with this exact dtype) and records those sites as the certification
#: witness.  ``uint8`` entries are the C ``uint8_t*`` flag bytes
#: (``touched`` / ``cand``), declared here rather than silently allowed.
ABI_BUFFER_DTYPES: Mapping[str, str] = {
    # CKernel argument block and persistent scratch/output buffers.
    "_args": "int64",
    "_cmb_idx": "int64",
    "_cmb_val": "float64",
    "_cmb_entries": "float64",
    "_out_idx": "int64",
    "_out_val": "float64",
    "_add_idx": "int64",
    "_rem_idx": "int64",
    "_scratch_a_idx": "int64",
    "_scratch_a_val": "float64",
    "_scratch_b_idx": "int64",
    "_scratch_b_val": "float64",
    "_piv_sorted": "int64",
    "_piv_order": "int64",
    "_cand": "uint8",
    "_row_idx_ptrs": "int64",
    "_row_val_ptrs": "int64",
    "_row_lens": "int64",
    "_row_caps": "int64",
    "_new_lens": "int64",
    "_out_offsets": "int64",
    "_add_offsets": "int64",
    "_rem_offsets": "int64",
    "_touched": "uint8",
    "_stats": "int64",
    # PendingUpdates staging arrays (pointer slots refreshed per flush).
    "_pivots": "int64",
    "_scales": "float64",
    "_upd_offsets": "int64",
    "_cols_flat": "int64",
    "_vals_flat": "float64",
    "_pend_rows": "int64",
    "_one_row": "int64",
    "_one_start": "int64",
    "_two_rows": "int64",
    "_two_starts": "int64",
    # SparseMatrix row storage and implicit-diagonal store.
    "idx": "int64",
    "val": "float64",
    "_diag": "float64",
}
