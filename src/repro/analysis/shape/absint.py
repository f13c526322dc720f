"""MEGH012/019/020/022/023 — symbolic shape abstract interpretation.

Each function body in the hot packages is interpreted over the
:class:`~repro.analysis.shape.dims.ShapeInfo` domain: arrays carry a
tuple of named dimension symbols (``N``, ``M``, ``K``, ``W``, ``d``,
…), a dtype, and contiguity/ownership proofs.  Facts are seeded from
the declared tables (``FIELD_TYPES`` / ``METHOD_TYPES``) and the
parameter contracts (``SHAPE_CONTRACTS``), then propagated through
indexing, ``np.*`` factories, gathers (``searchsorted`` /
``bincount``), reductions, ufuncs, and arithmetic.  Five rules ride on
the propagated facts:

``MEGH012``
    dtype/axis discipline: (A) an array created with a non-canonical
    dtype (``int32``, ``float32``, platform ``int``, …) unless it is
    assigned straight to an ``ABI_BUFFER_DTYPES`` attribute in exactly
    its declared dtype; (B) a 1-d per-VM (``N``) vector combined with a
    1-d per-PM (``M``) vector; (C) arithmetic mixing an int64 with a
    float64 array (warning); (D) a float64 value stored in place into
    an int64 array; (E) a built-in ``sum``/``min``/``max`` over an
    ndarray (warning).
``MEGH019``
    broadcast-rank mismatch.  Trailing-aligned symbolic dims that
    conflict outright are errors; an implicit rank promotion (a
    1-d vector silently stretched against a 2-d operand) is a warning
    unless declared intentional with an explicit unit axis
    (``vec[None, :]``), which produces an equal-rank ``1`` dim and is
    exact broadcasting by construction.  The 1-d N-vs-M conflict is
    MEGH012's finding (B), reported once under that rule.
``MEGH020``
    dtype drift.  ``np.arange`` without an explicit dtype leaks the
    platform int; storing into a declared field with a different dtype,
    or returning a different dtype from a declared-return method,
    silently changes the canonical dtype downstream.
``MEGH022``
    shape-contract violation at a call boundary, with a witness chain
    (caller qualname -> contracted callee) in the message.
``MEGH023``
    in-place aliasing hazard: a ufunc ``out=`` target (or
    ``np.copyto`` destination) that is a view of the same base buffer
    as one of its inputs, with a *different* region expression — the
    read/write overlap makes the result order-dependent.  Writing an
    operand onto itself (identical expression) is well-defined and
    stays silent.

The interpretation is flow-insensitive within a statement walk —
deliberate: the hot paths are straight-line array code.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import FunctionInfo, Project, dotted_name
from repro.analysis.shape.dims import (
    ABI_BUFFER_DTYPES,
    DIM_SIZE_NAMES,
    FIELD_TYPES,
    HOT_PREFIXES,
    METHOD_TYPES,
    SHAPE_CONTRACTS,
    ParamContract,
    ShapeContract,
    ShapeInfo,
    in_hot_package,
    render_dims,
)

__all__ = ["check_shapes"]

#: numpy factories producing a fresh owned C-contiguous buffer.
_OWNING_FACTORIES = frozenset({"zeros", "empty", "ones", "full"})
_LIKE_FACTORIES = frozenset({"zeros_like", "empty_like", "ones_like", "full_like"})

#: Elementwise ufuncs checked for broadcasting and ``out=`` aliasing.
_ELEMENTWISE_UFUNCS = frozenset(
    {
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "mod", "power", "maximum", "minimum",
        "less", "less_equal", "greater", "greater_equal",
        "equal", "not_equal", "logical_and", "logical_or",
        "logical_not", "logical_xor", "where", "clip", "copyto",
    }
)

_COMPARISON_UFUNCS = frozenset(
    {
        "less", "less_equal", "greater", "greater_equal", "equal",
        "not_equal", "logical_and", "logical_or", "logical_not",
        "logical_xor",
    }
)

#: ndarray methods / np functions whose result keeps the operand dims.
_DIM_PRESERVING = frozenset({"argsort", "sort", "cumsum", "copy", "round"})

#: Results with statically unknown 1-d extent.
_UNKNOWN_VECTOR = frozenset(
    {"flatnonzero", "unique", "repeat", "concatenate", "diff", "nonzero"}
)

#: Axis-dropping reductions (with ``axis=``; full reductions are scalar).
_REDUCTIONS = frozenset(
    {"sum", "max", "min", "mean", "prod", "any", "all", "count_nonzero",
     "argmax", "argmin"}
)

#: Arithmetic AST operators (MEGH012 checks C and D read these).
_ARITHMETIC_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)

#: Binary AST operators treated as elementwise: arithmetic plus the
#: bitwise mask operators ``& | ^``.
_ELEMENTWISE_OPS = _ARITHMETIC_OPS + (ast.BitAnd, ast.BitOr, ast.BitXor)

#: MEGH012 check A: dtype spellings never acceptable at hot-path array
#: creation (the value is the explanation in the message).
_BAD_DTYPES = {
    "float32": "float32",
    "float16": "float16",
    "int32": "int32",
    "int16": "int16",
    "int8": "int8",
    "uint8": "uint8",
    "uint32": "uint32",
    "int": "platform int",
    "float": "python float (use float64 explicitly)",
}

#: MEGH012 check E: Python builtins that reduce with a scalar loop.
_PY_REDUCTIONS = frozenset({"sum", "min", "max"})

#: MEGH012 check B messages, by broadcast context.
_AXIS_MIX_MESSAGES = {
    "elementwise operation": (
        "elementwise op between a per-VM (N) and a per-PM (M) vector "
        "broadcasts incompatibly (or silently 'works' when N == M); "
        "gather via host_of or aggregate first"
    ),
    "comparison": (
        "comparison between a per-VM (N) and a per-PM (M) vector; align "
        "axes explicitly (index by host_of or aggregate first)"
    ),
}


def _is_axis_mix(left: ShapeInfo, right: ShapeInfo) -> bool:
    """A 1-d per-VM vector against a 1-d per-PM vector (check B)."""
    return left.rank == right.rank == 1 and {
        left.dims[0], right.dims[0]
    } == {"N", "M"}


def _dtype_spelling(expression: ast.expr) -> Optional[str]:
    """The dtype exactly as written (``np.int32``, ``'float32'``)."""
    name = dotted_name(expression)
    if name is not None:
        return name
    if isinstance(expression, ast.Constant) and isinstance(
        expression.value, str
    ):
        return expression.value
    return None


def _is_numpy_call(dotted: str) -> bool:
    head = dotted.split(".", 1)[0]
    return head in ("np", "numpy")


def _dtype_text(expression: ast.expr) -> Optional[str]:
    spelled = _dtype_spelling(expression)
    return spelled.rsplit(".", 1)[-1] if spelled is not None else None


def _dims_compatible(a: str, b: str) -> bool:
    """Whether two dimension symbols can legally share an axis."""
    if a == b:
        return True
    return "?" in (a, b) or "1" in (a, b)


def _merge_dim(a: str, b: str) -> str:
    if a == b:
        return a
    if a in ("1", "?"):
        return b
    if b in ("1", "?"):
        return a
    return "?"


class _FunctionShapes:
    """Symbolic shape interpretation over one function body."""

    def __init__(self, function: FunctionInfo, enabled: Set[str]) -> None:
        self.function = function
        self.enabled = enabled
        self.findings: List[Diagnostic] = []
        self._reported: Set[Tuple[int, int, str]] = set()
        #: Local name -> inferred abstract value.
        self.env: Dict[str, ShapeInfo] = {}
        #: Local name -> base-buffer token (view-alias tracking for
        #: MEGH023: ``buf = self._vals_flat`` makes ``buf[...]`` and
        #: ``self._vals_flat[...]`` views of the same base).
        self.bases: Dict[str, str] = {}
        #: Creation calls assigned straight to an ABI buffer attribute,
        #: with that attribute's declared dtype (MEGH012 check A).
        self._abi_creations: Dict[ast.Call, str] = {}
        contract = SHAPE_CONTRACTS.get(function.name)
        if contract is not None:
            self._seed_from_contract(contract)

    def _seed_from_contract(self, contract: ShapeContract) -> None:
        declared = set(self.function.parameters())
        for name, param in contract.params:
            if param is None or name not in declared:
                continue
            # Inside the callee the contract is an assumption: required
            # ownership/contiguity hold, anything not required is
            # unproven (so the callee cannot launder a view into the
            # ABI through an uncontracted parameter).
            self.env[name] = ShapeInfo(
                param.shape.dims,
                param.shape.dtype,
                contiguous=param.require_contiguous,
                owned=param.require_owned,
            )

    # -- reporting -------------------------------------------------------
    def _report(
        self, node: ast.AST, rule_id: str, message: str, severity: Severity
    ) -> None:
        if rule_id not in self.enabled:
            return
        key = (
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Diagnostic(
                path=self.function.module.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                rule_id=rule_id,
                severity=severity,
                message=message,
            )
        )

    # -- abstract evaluation ---------------------------------------------
    def shape_of(self, expression: ast.expr) -> Optional[ShapeInfo]:
        """Inferred abstract value of an expression, or None if unknown."""
        if isinstance(expression, ast.Name):
            return self.env.get(expression.id)
        if isinstance(expression, ast.Attribute):
            return FIELD_TYPES.get(expression.attr)
        if isinstance(expression, ast.Subscript):
            return self._shape_of_subscript(expression)
        if isinstance(expression, ast.Call):
            return self._shape_of_call(expression)
        if isinstance(expression, ast.BinOp) and isinstance(
            expression.op, _ELEMENTWISE_OPS
        ):
            left = self.shape_of(expression.left)
            right = self.shape_of(expression.right)
            self._check_int_float_mix(expression, expression.op, left, right)
            return self._broadcast(
                expression, [left, right], "elementwise operation"
            )
        if isinstance(expression, ast.UnaryOp):
            return self.shape_of(expression.operand)
        if isinstance(expression, ast.Compare):
            operands = [self.shape_of(expression.left)] + [
                self.shape_of(comparator)
                for comparator in expression.comparators
            ]
            combined = self._broadcast(expression, operands, "comparison")
            if combined is None:
                return None
            return ShapeInfo(
                combined.dims, "bool", combined.contiguous, combined.owned
            )
        if isinstance(expression, ast.IfExp):
            then = self.shape_of(expression.body)
            return then if then is not None else self.shape_of(
                expression.orelse
            )
        return None

    def _shape_of_subscript(
        self, subscript: ast.Subscript
    ) -> Optional[ShapeInfo]:
        base = self.shape_of(subscript.value)
        if base is None:
            return None
        index = subscript.slice
        elements: List[ast.expr] = (
            list(index.elts) if isinstance(index, ast.Tuple) else [index]
        )
        dims: List[str] = []
        remaining = list(base.dims)
        sliced_view = False
        fancy_copy = False
        prefix_slice_only = True
        for position, element in enumerate(elements):
            if isinstance(element, ast.Constant) and element.value is None:
                dims.append("1")
                continue
            if not remaining:
                return None  # over-indexed: rank confusion, stay silent
            if isinstance(element, ast.Constant) or (
                isinstance(element, ast.UnaryOp)
                and isinstance(element.operand, ast.Constant)
            ):
                remaining.pop(0)  # scalar index drops the axis
                prefix_slice_only = False
                continue
            if isinstance(element, ast.Slice):
                symbol = remaining.pop(0)
                sliced_view = True
                step_is_unit = element.step is None or (
                    isinstance(element.step, ast.Constant)
                    and element.step.value == 1
                )
                if not step_is_unit:
                    dims.append("?")
                    prefix_slice_only = False
                elif element.lower is None and element.upper is None:
                    dims.append(symbol)
                else:
                    dims.append("?")
                    if position != 0:
                        prefix_slice_only = False
                continue
            indexer = self.shape_of(element)
            if indexer is None:
                if base.rank == 1 and len(elements) == 1:
                    # A scalar or an index array: the extent is unknown
                    # but the element dtype is not (MEGH012 reads it).
                    return ShapeInfo(("?",), base.dtype, True, True)
                return None  # could be a scalar variable: unknown rank
            prefix_slice_only = False
            fancy_copy = True
            if indexer.dtype == "bool":
                # Boolean mask consumes as many axes as its rank and
                # yields one axis of unknown extent.
                for _ in range(min(indexer.rank, len(remaining))):
                    remaining.pop(0)
                dims.append("?")
            else:
                remaining.pop(0)
                dims.extend(indexer.dims)
        dims.extend(remaining)
        if not dims:
            return None  # fully scalarized
        if fancy_copy:
            return ShapeInfo(tuple(dims), base.dtype, True, True)
        contiguous = base.contiguous and prefix_slice_only
        owned = base.owned and not sliced_view
        return ShapeInfo(tuple(dims), base.dtype, contiguous, owned)

    def _shape_of_call(self, call: ast.Call) -> Optional[ShapeInfo]:
        name = dotted_name(call.func)
        method = (
            call.func.attr if isinstance(call.func, ast.Attribute) else None
        )
        if method in SHAPE_CONTRACTS and isinstance(call.func, ast.Attribute):
            self._check_contract_call(call, SHAPE_CONTRACTS[method])
        if method in METHOD_TYPES:
            return METHOD_TYPES[method]
        tail = name.rsplit(".", 1)[-1] if name else method
        if tail is None:
            return None
        numpy_call = name is not None and _is_numpy_call(name)
        if numpy_call and (
            tail in _OWNING_FACTORIES
            or tail in _LIKE_FACTORIES
            or tail in {"arange", "ascontiguousarray", "asarray", "array"}
        ):
            self._check_creation_dtype(call, _dtype_keyword(call))
        if numpy_call and tail in _OWNING_FACTORIES:
            dtype = self._declared_dtype(call) or "float64"
            dims = self._dims_from_shape_argument(call)
            return ShapeInfo(dims, dtype, True, True)
        if numpy_call and tail in _LIKE_FACTORIES:
            template = self.shape_of(call.args[0]) if call.args else None
            dtype = self._declared_dtype(call)
            if template is None:
                return (
                    ShapeInfo(("?",), dtype, True, True) if dtype else None
                )
            return ShapeInfo(template.dims, dtype or template.dtype, True, True)
        if numpy_call and tail == "arange":
            dtype = self._declared_dtype(call)
            if dtype is None:
                self._report(
                    call,
                    "MEGH020",
                    "np.arange without an explicit dtype leaks the platform "
                    "int (int32 on Windows/32-bit); index vectors on the "
                    "hot paths must be created with dtype=np.int64",
                    Severity.ERROR,
                )
                dtype = "int64"
            dims = self._dims_from_shape_argument(call)
            return ShapeInfo(dims, dtype, True, True)
        if tail == "astype" and isinstance(call.func, ast.Attribute):
            base = self.shape_of(call.func.value)
            written = call.args[0] if call.args else _dtype_keyword(call)
            self._check_creation_dtype(call, written)
            dtype = _dtype_text(written) if written is not None else None
            if dtype is None:
                return None
            dims = base.dims if base is not None else ("?",)
            return ShapeInfo(dims, dtype, True, True)
        if numpy_call and tail in {"ascontiguousarray", "asarray", "array"}:
            base = self.shape_of(call.args[0]) if call.args else None
            dtype = self._declared_dtype(call)
            if base is not None:
                # asarray of an array is a no-copy passthrough unless
                # the dtype changes; keep the base's proofs in the
                # same-dtype case so ownership is never invented.
                if tail == "ascontiguousarray":
                    return ShapeInfo(base.dims, dtype or base.dtype, True, True)
                if dtype is None or dtype == base.dtype:
                    return base
                return ShapeInfo(base.dims, dtype, True, True)
            if dtype is not None:
                return ShapeInfo(("?",), dtype, True, True)
            return None
        if numpy_call and tail == "bincount":
            for keyword in call.keywords:
                if keyword.arg == "weights":
                    weights = self.shape_of(keyword.value)
                    dtype = weights.dtype if weights else "float64"
                    return ShapeInfo(("M",), dtype, True, True)
            return ShapeInfo(("M",), "int64", True, True)
        if tail == "searchsorted":
            # np.searchsorted(a, v) / a.searchsorted(v): result has the
            # shape of the needles, always int64.
            needles: Optional[ast.expr] = None
            if numpy_call and len(call.args) >= 2:
                needles = call.args[1]
            elif method == "searchsorted" and call.args:
                needles = call.args[0]
            if needles is None:
                return None
            found = self.shape_of(needles)
            dims = found.dims if found is not None else ("?",)
            return ShapeInfo(dims, "int64", True, True)
        if tail in _UNKNOWN_VECTOR and numpy_call:
            first = self.shape_of(call.args[0]) if call.args else None
            dtype = "int64" if tail in ("flatnonzero", "nonzero") else (
                first.dtype if first is not None else "?"
            )
            return ShapeInfo(("?",), dtype, True, True)
        if tail in _DIM_PRESERVING:
            operand: Optional[ast.expr] = None
            if numpy_call and call.args:
                operand = call.args[0]
            elif isinstance(call.func, ast.Attribute):
                operand = call.func.value
            if operand is None:
                return None
            base = self.shape_of(operand)
            if base is None:
                return None
            dtype = "int64" if tail == "argsort" else base.dtype
            self._check_out_aliasing(call, [operand])
            return ShapeInfo(base.dims, dtype, True, True)
        if tail in _REDUCTIONS:
            return self._shape_of_reduction(call, numpy_call, method, tail)
        if numpy_call and tail in _ELEMENTWISE_UFUNCS:
            return self._shape_of_ufunc(call, tail)
        return None

    def _shape_of_reduction(
        self,
        call: ast.Call,
        numpy_call: bool,
        method: Optional[str],
        tail: str,
    ) -> Optional[ShapeInfo]:
        operand: Optional[ast.expr] = None
        if numpy_call and call.args:
            operand = call.args[0]
        elif method == tail and isinstance(call.func, ast.Attribute):
            operand = call.func.value
        if operand is None:
            return None
        base = self.shape_of(operand)
        if base is None:
            return None
        axis: Optional[int] = None
        for keyword in call.keywords:
            if keyword.arg == "axis" and isinstance(
                keyword.value, ast.Constant
            ):
                value = keyword.value.value
                if isinstance(value, int):
                    axis = value
        if axis is None:
            return None  # full reduction: scalar
        if axis < 0:
            axis += base.rank
        if not 0 <= axis < base.rank:
            return None
        dims = base.dims[:axis] + base.dims[axis + 1 :]
        if not dims:
            return None
        if tail in ("argmax", "argmin"):
            dtype = "int64"
        elif tail in ("any", "all"):
            dtype = "bool"
        else:
            dtype = base.dtype
        return ShapeInfo(dims, dtype, True, True)

    def _shape_of_ufunc(self, call: ast.Call, tail: str) -> Optional[ShapeInfo]:
        operands = list(call.args)
        shapes = [self.shape_of(argument) for argument in operands]
        out_expr: Optional[ast.expr] = None
        for keyword in call.keywords:
            if keyword.arg == "out":
                out_expr = keyword.value
        if tail == "copyto" and len(operands) >= 2:
            # np.copyto(dst, src) is an in-place write like out=dst.
            out_expr = operands[0]
            self._check_out_aliasing(call, operands[1:], out_expr)
            dst = shapes[0]
            src = self._broadcast(call, shapes, f"np.{tail}")
            return dst if dst is not None else src
        combined = self._broadcast(call, shapes, f"np.{tail}")
        if out_expr is not None:
            self._check_out_aliasing(call, operands, out_expr)
            out_shape = self.shape_of(out_expr)
            if out_shape is not None:
                combined = out_shape
        if combined is None:
            return None
        if tail in _COMPARISON_UFUNCS:
            return ShapeInfo(
                combined.dims, "bool", combined.contiguous, combined.owned
            )
        return combined

    def _declared_dtype(self, call: ast.Call) -> Optional[str]:
        written = _dtype_keyword(call)
        return _dtype_text(written) if written is not None else None

    def _dim_of_size(self, size: ast.expr) -> str:
        if isinstance(size, ast.Attribute):
            return DIM_SIZE_NAMES.get(size.attr, "?")
        if isinstance(size, ast.Name):
            return DIM_SIZE_NAMES.get(size.id, "?")
        if isinstance(size, ast.Constant) and isinstance(size.value, int):
            return str(size.value)
        if isinstance(size, ast.Call) and isinstance(size.func, ast.Name):
            if size.func.id == "len" and size.args:
                inner = self.shape_of(size.args[0])
                if inner is not None and inner.rank == 1:
                    return inner.dims[0]
        return "?"

    def _dims_from_shape_argument(self, call: ast.Call) -> Tuple[str, ...]:
        if not call.args:
            return ("?",)
        shape_arg = call.args[0]
        if isinstance(shape_arg, (ast.Tuple, ast.List)):
            return tuple(
                self._dim_of_size(element) for element in shape_arg.elts
            ) or ("?",)
        return (self._dim_of_size(shape_arg),)

    # -- MEGH019: broadcasting -------------------------------------------
    def _broadcast(
        self,
        node: ast.AST,
        operands: Sequence[Optional[ShapeInfo]],
        context: str,
    ) -> Optional[ShapeInfo]:
        known = [operand for operand in operands if operand is not None]
        if not known:
            return None
        result = known[0]
        for operand in known[1:]:
            result = self._broadcast_pair(node, result, operand, context)
        return result

    def _broadcast_pair(
        self, node: ast.AST, left: ShapeInfo, right: ShapeInfo, context: str
    ) -> ShapeInfo:
        a, b = left.dims, right.dims
        rank = max(len(a), len(b))
        merged: List[str] = []
        conflict: Optional[Tuple[str, str]] = None
        for offset in range(1, rank + 1):
            da = a[-offset] if offset <= len(a) else None
            db = b[-offset] if offset <= len(b) else None
            if da is None:
                assert db is not None
                merged.append(db)
                continue
            if db is None:
                merged.append(da)
                continue
            if not _dims_compatible(da, db):
                if conflict is None:
                    conflict = (da, db)
                merged.append("?")
                continue
            merged.append(_merge_dim(da, db))
        merged.reverse()
        if _is_axis_mix(left, right):
            self._report_axis_mix(node, context)
        elif conflict is not None:
            da, db = conflict
            self._report(
                node,
                "MEGH019",
                f"{context} between symbolic shapes "
                f"{render_dims(a)} and {render_dims(b)} cannot "
                f"broadcast: trailing-aligned dims {da} vs {db} "
                "conflict (raises at runtime, or silently 'works' "
                "when the extents coincide in a small test)",
                Severity.ERROR,
            )
        elif len(a) != len(b):
            shorter, longer = (a, b) if len(a) < len(b) else (b, a)
            if all(symbol != "?" for symbol in shorter):
                self._report(
                    node,
                    "MEGH019",
                    f"{context} implicitly broadcasts {render_dims(shorter)} "
                    f"against {render_dims(longer)} by rank promotion; "
                    "declare the intent with an explicit unit axis "
                    "([None, :] / [:, None]) or suppress with "
                    "'meghlint: ignore[MEGH019]'",
                    Severity.WARNING,
                )
        dtype = _combine_dtypes(left.dtype, right.dtype)
        # A broadcast result materializes a fresh buffer.
        return ShapeInfo(tuple(merged), dtype, True, True)

    # -- MEGH012: dtype/axis discipline ----------------------------------
    def _report_axis_mix(self, node: ast.AST, context: str) -> None:
        """Check B: a 1-d per-VM vector combined with a per-PM one."""
        message = _AXIS_MIX_MESSAGES.get(context)
        if message is None:  # an ``np.<ufunc>`` call
            message = (
                f"numpy.{context[3:]} mixes a per-VM (N) and a per-PM (M) "
                "operand; align axes explicitly"
            )
        self._report(node, "MEGH012", message, Severity.ERROR)

    def _check_creation_dtype(
        self, call: ast.Call, written: Optional[ast.expr]
    ) -> None:
        """Check A: non-canonical dtype at hot-path array creation."""
        spelled = _dtype_spelling(written) if written is not None else None
        if spelled is None:
            return
        normalized = spelled.rsplit(".", 1)[-1]
        if normalized not in _BAD_DTYPES:
            return
        if self._abi_creations.get(call) == normalized:
            return  # the declared element type of a C ABI buffer
        self._report(
            call,
            "MEGH012",
            f"array created with non-canonical dtype {spelled!r} "
            f"({_BAD_DTYPES[normalized]}) in a bit-identity-critical "
            "module; use float64/int64/bool",
            Severity.ERROR,
        )

    def _check_int_float_mix(
        self,
        node: ast.AST,
        op: ast.operator,
        left: Optional[ShapeInfo],
        right: Optional[ShapeInfo],
    ) -> None:
        """Check C: int64 array arithmetic with a float64 array."""
        if left is None or right is None or _is_axis_mix(left, right):
            return
        if not isinstance(op, _ARITHMETIC_OPS) or isinstance(
            op, (ast.Div, ast.Pow)
        ):
            return
        if {left.dtype, right.dtype} == {"int64", "float64"}:
            self._report(
                node,
                "MEGH012",
                "arithmetic mixes an int64 array with a float64 array; "
                "the implicit upcast is a bit-identity hazard — convert "
                "explicitly with .astype(np.float64)",
                Severity.WARNING,
            )

    def _check_store(
        self, node: ast.stmt, target: ast.expr, value: Optional[ShapeInfo]
    ) -> None:
        """Check D: a float64 value stored in place into an int64 array."""
        if value is None or value.dtype != "float64":
            return
        if isinstance(target, ast.Subscript):
            stored = self.shape_of(target.value)
        elif isinstance(target, ast.Attribute) or (
            isinstance(target, ast.Name) and isinstance(node, ast.AugAssign)
        ):
            stored = self.shape_of(target)
        else:
            return  # rebinding a name is fine; only += truncates
        if stored is not None and stored.dtype == "int64":
            self._report(
                node,
                "MEGH012",
                "float64 value written in place into an int64 array "
                "silently truncates; cast explicitly or keep the store "
                "integral",
                Severity.ERROR,
            )

    def _check_builtin_reduction(self, call: ast.Call) -> None:
        """Check E: built-in ``sum``/``min``/``max`` over an ndarray."""
        if not isinstance(call.func, ast.Name) or not call.args:
            return
        if call.func.id not in _PY_REDUCTIONS:
            return
        argument = call.args[0]
        if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
            return  # reductions over comprehensions are scalar by intent
        if self.shape_of(argument) is not None:
            self._report(
                call,
                "MEGH012",
                f"built-in {call.func.id}() over an ndarray runs a Python "
                "scalar loop and reassociates the reduction; use "
                f"numpy.{call.func.id} / ndarray.{call.func.id}()",
                Severity.WARNING,
            )

    # -- MEGH023: out=/view aliasing -------------------------------------
    def _base_token(self, expression: ast.expr) -> Optional[str]:
        stripped = expression
        while isinstance(stripped, ast.Subscript):
            stripped = stripped.value
        if isinstance(stripped, ast.Name):
            return self.bases.get(stripped.id, f"name:{stripped.id}")
        if isinstance(stripped, ast.Attribute):
            dotted = dotted_name(stripped)
            if dotted is not None:
                return f"attr:{dotted}"
            return None
        return None  # call/temp results own fresh buffers

    def _check_out_aliasing(
        self,
        call: ast.Call,
        inputs: Sequence[ast.expr],
        out_expr: Optional[ast.expr] = None,
    ) -> None:
        if out_expr is None:
            for keyword in call.keywords:
                if keyword.arg == "out":
                    out_expr = keyword.value
        if out_expr is None:
            return
        out_base = self._base_token(out_expr)
        if out_base is None:
            return
        out_text = ast.dump(out_expr)
        for argument in inputs:
            if self._base_token(argument) != out_base:
                continue
            if ast.dump(argument) == out_text:
                continue  # x op= x in place: element-wise well-defined
            self._report(
                call,
                "MEGH023",
                f"in-place write aliases its input: the out= target and an "
                f"operand are both views of {out_base.split(':', 1)[-1]} "
                "with different region expressions, so elements may be "
                "read after they were overwritten; copy the input or use "
                "a distinct scratch buffer",
                Severity.ERROR,
            )

    # -- MEGH022: call-boundary contracts --------------------------------
    def _check_contract_call(
        self, call: ast.Call, contract: ShapeContract
    ) -> None:
        if "MEGH022" not in self.enabled:
            return
        for position, argument in enumerate(call.args):
            if position >= len(contract.params):
                break
            name, param = contract.params[position]
            self._check_contract_argument(call, contract, name, param, argument)
        by_name = dict(contract.params)
        for keyword in call.keywords:
            if keyword.arg and keyword.arg in by_name:
                self._check_contract_argument(
                    call, contract, keyword.arg, by_name[keyword.arg],
                    keyword.value,
                )

    def _check_contract_argument(
        self,
        call: ast.Call,
        contract: ShapeContract,
        name: str,
        param: Optional[ParamContract],
        argument: ast.expr,
    ) -> None:
        if param is None:
            return
        actual = self.shape_of(argument)
        if actual is None:
            return
        problems: List[str] = []
        declared = param.shape
        if actual.rank != declared.rank:
            problems.append(
                f"rank {actual.rank} {render_dims(actual.dims)} != declared "
                f"rank {declared.rank} {render_dims(declared.dims)}"
            )
        else:
            for da, db in zip(actual.dims, declared.dims):
                if not _dims_compatible(da, db):
                    problems.append(
                        f"dim {da} incompatible with declared {db} "
                        f"({render_dims(actual.dims)} vs "
                        f"{render_dims(declared.dims)})"
                    )
                    break
        if (
            actual.dtype != declared.dtype
            and "?" not in (actual.dtype, declared.dtype)
        ):
            problems.append(
                f"dtype {actual.dtype} != declared {declared.dtype}"
            )
        if param.require_owned and not actual.owned:
            problems.append(
                "a view was passed where the contract requires an owned "
                "buffer (its .ctypes.data crosses the C ABI)"
            )
        if param.require_contiguous and not actual.contiguous:
            problems.append(
                "C-contiguity is not provable where the contract requires "
                "a contiguous buffer"
            )
        for problem in problems:
            self._report(
                call,
                "MEGH022",
                f"argument '{name}' violates the shape contract of "
                f"{contract.qualname}: {problem} "
                f"[witness: {self.function.qualname} -> {name}@"
                f"{contract.qualname}]",
                Severity.ERROR,
            )

    # -- MEGH020: declared-dtype drift -----------------------------------
    def _check_field_store(
        self, node: ast.AST, target: ast.expr, value: Optional[ShapeInfo]
    ) -> None:
        if value is None or not isinstance(target, ast.Attribute):
            return
        declared = FIELD_TYPES.get(target.attr)
        if declared is None:
            return
        if value.dtype != declared.dtype and "?" not in (
            value.dtype, declared.dtype
        ):
            self._report(
                node,
                "MEGH020",
                f"dtype drift: field '{target.attr}' is declared "
                f"{declared.dtype} in the dimension table but is assigned "
                f"a {value.dtype} value; cast explicitly or update the "
                "declaration",
                Severity.ERROR,
            )

    def _check_return(self, node: ast.Return) -> None:
        declared = METHOD_TYPES.get(self.function.name)
        if declared is None or node.value is None:
            return
        value = self.shape_of(node.value)
        if value is None:
            return
        if value.dtype != declared.dtype and "?" not in (
            value.dtype, declared.dtype
        ):
            self._report(
                node,
                "MEGH020",
                f"dtype drift: method '{self.function.name}' is declared "
                f"to return {declared.dtype} (METHOD_TYPES) but this "
                f"return statement produces {value.dtype}",
                Severity.ERROR,
            )

    # -- driver ----------------------------------------------------------
    def _bind_name(self, name: str, value: ast.expr) -> None:
        inferred = self.shape_of(value)
        if inferred is not None:
            self.env[name] = inferred
        else:
            self.env.pop(name, None)
        base = self._base_token(value)
        if base is not None and isinstance(
            value, (ast.Name, ast.Attribute, ast.Subscript)
        ):
            self.bases[name] = base
        else:
            self.bases.pop(name, None)

    def run(self) -> List[Diagnostic]:
        for statement in self.function.body():
            for node in ast.walk(statement):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs get their own FunctionInfo
                if isinstance(node, ast.Assign):
                    if isinstance(node.value, ast.Call):
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr in ABI_BUFFER_DTYPES
                            ):
                                self._abi_creations[node.value] = (
                                    ABI_BUFFER_DTYPES[target.attr]
                                )
                    value_shape = self.shape_of(node.value)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._bind_name(target.id, node.value)
                            continue
                        self._check_store(node, target, value_shape)
                        if isinstance(target, ast.Attribute):
                            self._check_field_store(node, target, value_shape)
                        elif isinstance(target, ast.Tuple):
                            for element in target.elts:
                                if isinstance(element, ast.Name):
                                    self.env.pop(element.id, None)
                                    self.bases.pop(element.id, None)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        self._bind_name(node.target.id, node.value)
                        continue
                    value_shape = self.shape_of(node.value)
                    self._check_store(node, node.target, value_shape)
                    if isinstance(node.target, ast.Attribute):
                        self._check_field_store(node, node.target, value_shape)
                elif isinstance(node, ast.AugAssign):
                    value_shape = self.shape_of(node.value)
                    if isinstance(node.target, ast.Attribute):
                        self._check_field_store(node, node.target, value_shape)
                    self._check_store(node, node.target, value_shape)
                    target_shape = self.shape_of(node.target)
                    if (
                        target_shape is not None
                        and value_shape is not None
                        and isinstance(node.op, _ARITHMETIC_OPS)
                        and _is_axis_mix(target_shape, value_shape)
                    ):
                        self._report_axis_mix(node, "elementwise operation")
                    self._check_int_float_mix(
                        node, node.op, target_shape, value_shape
                    )
                elif isinstance(node, ast.Return):
                    self._check_return(node)
                elif isinstance(node, ast.Call):
                    self._check_builtin_reduction(node)
                    self.shape_of(node)  # triggers the embedded checks
                elif isinstance(node, (ast.BinOp, ast.Compare)):
                    self.shape_of(node)
        return self.findings


def _dtype_keyword(call: ast.Call) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    return None


def _combine_dtypes(left: str, right: str) -> str:
    if left == right:
        return left
    if "?" in (left, right):
        return "?"
    if {left, right} == {"int64", "float64"}:
        return "float64"
    if "bool" in (left, right):
        return left if right == "bool" else right
    return "?"


def check_shapes(
    project: Project,
    enabled: Set[str],
    prefixes: Sequence[str] = HOT_PREFIXES,
) -> List[Diagnostic]:
    """Run the interpreter-backed rules over the hot packages."""
    diagnostics: List[Diagnostic] = []
    for function in project.iter_functions():
        if not in_hot_package(function, prefixes):
            continue
        diagnostics.extend(_FunctionShapes(function, enabled).run())
    return diagnostics
