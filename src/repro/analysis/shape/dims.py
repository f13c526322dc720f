"""Declared dimension vocabulary, ndarray tables, and ABI contracts.

meghshape's abstract values are symbolic shapes over the fleet's named
dimensions.  Everything here is a *specification*: the analyzers check
the code against these declarations, and the self-analysis test fails
loudly when a refactor changes a buffer without updating its
declaration in the same change.  Each field's dtype and dimensions are
declared once, in :data:`FIELD_TYPES`; MEGH012 and MEGH019–023 all read
the same entry.

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
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.analysis.flow.project import FunctionInfo

__all__ = [
    "DIMENSIONS",
    "DIM_SIZE_NAMES",
    "ShapeInfo",
    "FIELD_TYPES",
    "METHOD_TYPES",
    "ParamContract",
    "ShapeContract",
    "SHAPE_CONTRACTS",
    "ABI_BUFFER_DTYPES",
    "HOT_PREFIXES",
    "in_hot_package",
    "render_dims",
]

#: Packages whose arithmetic is bit-identity-critical: the interpreter
#: (MEGH012, MEGH019–023) and the ABI certification (MEGH021) analyze
#: only functions defined under these prefixes.
HOT_PREFIXES = ("repro.core", "repro.cloudsim")


def in_hot_package(function: FunctionInfo, prefixes: Sequence[str]) -> bool:
    """Whether ``function`` is defined in one of the hot packages."""
    module = function.module.name
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


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
#: dimension: ``np.zeros(arrays.num_pms)`` is an M-vector,
#: ``np.empty(window, ...)`` a W-vector, ``np.zeros(dimension, ...)`` a
#: d-vector, ``np.empty(num_rows, ...)`` a K-vector.
DIM_SIZE_NAMES: Dict[str, str] = {
    "num_vms": "N",
    "num_pms": "M",
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


#: Attribute name -> declared abstract value.  Every DatacenterArrays
#: vector and CandidateIndex budget is an owned, C-contiguous
#: ``np.zeros`` allocation.
FIELD_TYPES: Dict[str, ShapeInfo] = {
    # DatacenterArrays per-VM state (axis N).
    "vm_mips": _vector("float64", "N"),
    "vm_ram_mb": _vector("float64", "N"),
    "vm_bandwidth_mbps": _vector("float64", "N"),
    "vm_demand": _vector("float64", "N"),
    "vm_delivered": _vector("float64", "N"),
    "vm_active": _vector("bool", "N"),
    "host_of": _vector("int64", "N"),
    # DatacenterArrays per-PM state (axis M).
    "pm_mips": _vector("float64", "M"),
    "pm_ram_mb": _vector("float64", "M"),
    "pm_bandwidth_mbps": _vector("float64", "M"),
    "pm_asleep": _vector("bool", "M"),
    "pm_vm_count": _vector("int64", "M"),
    "_pm_ram_used": _vector("float64", "M"),
    "_pm_demand_mips": _vector("float64", "M"),
    "_pm_delivered_mips": _vector("float64", "M"),
    "_pm_ram_free": _vector("float64", "M"),
    # CandidateIndex static per-PM budget vectors (repro/core/candidates.py).
    "_mips_budget": _vector("float64", "M"),
    "_mips_budget_full": _vector("float64", "M"),
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

#: Method name -> declared return value (all of the DatacenterArrays
#: queries return owned 1-d aggregates).
METHOD_TYPES: Dict[str, ShapeInfo] = {
    "pm_ram_used_mb": _vector("float64", "M"),
    "pm_ram_free_mb": _vector("float64", "M"),
    "pm_demand_mips": _vector("float64", "M"),
    "pm_delivered_mips": _vector("float64", "M"),
    "pm_demand_utilization": _vector("float64", "M"),
    "pm_delivered_utilization": _vector("float64", "M"),
    "active_pm_mask": _vector("bool", "M"),
    "overloaded_pm_mask": _vector("bool", "M"),
    "_sum_by_host": _vector("float64", "M"),
    "column_support": _vector("int64", "?"),
    "theta": _vector("float64", "d"),
}


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
#: (``cand``), declared here rather than silently allowed:
#: MEGH012 accepts a creation assigned straight to one of these
#: attributes when its dtype is exactly the declared one.
ABI_BUFFER_DTYPES: Mapping[str, str] = {
    # CKernel argument block and persistent scratch/output buffers.
    "_args": "int64",
    "_cmb_idx": "int64",
    "_cmb_val": "float64",
    "_cmb_entries": "float64",
    "_scratch_a_idx": "int64",
    "_scratch_a_val": "float64",
    "_scratch_b_idx": "int64",
    "_scratch_b_val": "float64",
    "_piv_sorted": "int64",
    "_piv_order": "int64",
    "_cand": "uint8",
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
    # SparseMatrix slot tables, pool, store block and implicit diagonal.
    "_slot_of": "int32",
    "_slot_row": "int64",
    "_off": "int64",
    "_len": "int64",
    "_cap": "int64",
    "_pool_idx": "int64",
    "_pool_val": "float64",
    "_store": "int64",
    "_diag": "float64",
    # CKernel column-change output.
    "_chg_rows": "int64",
    "_chg_cols": "int64",
}
