"""MEGH021 — kernel-ABI safety certification.

The deferred-update kernel (:mod:`repro.core.kern`) hands raw buffer
addresses to compiled C through an int64 argument block: every pointer
written there is a bare ``array.ctypes.data``.  The C side assumes each
buffer is C-contiguous, owned (no view whose base could be resized or
garbage-collected), and exactly the declared element type — none of
which NumPy checks once the address is an integer.  The bit-identity
contract of the rank-k replay (PR 8) rests on those assumptions.

This pass proves them.  It is a two-phase whole-program check over the
hot packages:

1. **Construction phase** — every assignment to an attribute listed in
   :data:`~repro.analysis.shape.dims.ABI_BUFFER_DTYPES` must be a
   provably owning C-contiguous constructor (``np.empty`` / ``zeros`` /
   ``ones`` / ``full``) with exactly the declared dtype, either
   directly or through a same-function local (the grow-then-swap
   pattern: ``grown = np.empty(...); self._pend_rows = grown``).  Each
   valid site is recorded as a *witness*.
2. **Boundary phase** — every ``<base>.ctypes`` read must resolve to a
   witnessed buffer: a declared attribute with at least one recorded
   construction site, a same-function alias of one
   (``matrix_diag = matrix._diag``), a local owning constructor, or a
   parameter whose :data:`~repro.analysis.shape.dims.SHAPE_CONTRACTS`
   entry requires an owned contiguous int64/float64 buffer (the
   obligation is then discharged at every call site by MEGH022).

The resulting :class:`KernelAbiReport` carries both the diagnostics and
the full certificate list (boundary site -> buffer -> construction
witness), which is what lets the test suite assert that *every* array
entering the C argument block is certified, not merely that no
violation was found.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import FunctionInfo, Project, dotted_name
from repro.analysis.shape.dims import (
    ABI_BUFFER_DTYPES,
    HOT_PREFIXES,
    SHAPE_CONTRACTS,
    in_hot_package,
)

__all__ = ["AbiCertificate", "KernelAbiReport", "check_kernel_abi"]

#: numpy constructors that allocate a fresh owned C-contiguous buffer.
_OWNING_FACTORIES = frozenset({"empty", "zeros", "ones", "full"})

#: Element types the C kernel accepts (uint8 only for declared flag
#: buffers, which the ABI table spells out explicitly).
_ABI_DTYPES = frozenset({"int64", "float64", "uint8"})


@dataclass(frozen=True)
class AbiCertificate:
    """One certified path from a construction site to the ABI boundary."""

    path: str
    line: int
    buffer: str
    dtype: str
    witness: str


@dataclass
class KernelAbiReport:
    """MEGH021 verdict: violations plus the positive certificates."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    certificates: List[AbiCertificate] = field(default_factory=list)

    def certified_buffers(self) -> Set[str]:
        return {certificate.buffer for certificate in self.certificates}


def _is_numpy_name(dotted: Optional[str]) -> bool:
    if dotted is None:
        return False
    head = dotted.split(".", 1)[0]
    return head in ("np", "numpy")


def _dtype_text(expression: ast.expr) -> Optional[str]:
    name = dotted_name(expression)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    if isinstance(expression, ast.Constant) and isinstance(
        expression.value, str
    ):
        return expression.value
    return None


def _owning_constructor(
    expression: ast.expr,
) -> Optional[Tuple[str, int]]:
    """``(dtype, line)`` when the expression provably owns a fresh
    C-contiguous buffer: an ``np.empty/zeros/ones/full`` call, or
    ``<declared ABI buffer>.copy()`` (``ndarray.copy`` defaults to
    C order and always allocates)."""
    if not isinstance(expression, ast.Call):
        return None
    line = getattr(expression, "lineno", 1)
    if (
        isinstance(expression.func, ast.Attribute)
        and expression.func.attr == "copy"
        and not expression.args
        and not expression.keywords
        and isinstance(expression.func.value, ast.Attribute)
    ):
        declared = ABI_BUFFER_DTYPES.get(expression.func.value.attr)
        if declared is not None:
            return declared, line
        return None
    name = dotted_name(expression.func)
    if not _is_numpy_name(name):
        return None
    assert name is not None
    if name.rsplit(".", 1)[-1] not in _OWNING_FACTORIES:
        return None
    dtype = "float64"
    for keyword in expression.keywords:
        if keyword.arg == "dtype":
            declared_dtype = _dtype_text(keyword.value)
            dtype = declared_dtype if declared_dtype is not None else "?"
    return dtype, line


class _AbiChecker:
    """Single-owner state for the two-phase certification."""

    def __init__(self, project: Project, prefixes: Sequence[str]) -> None:
        self.project = project
        self.prefixes = prefixes
        self.report = KernelAbiReport()
        #: buffer attr -> construction witnesses ("path:line [dtype]").
        self.constructions: Dict[str, List[str]] = {}
        self._reported: Set[Tuple[str, int, str]] = set()

    # -- reporting -------------------------------------------------------
    def _report(self, function: FunctionInfo, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        key = (function.module.path, line, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.report.diagnostics.append(
            Diagnostic(
                path=function.module.path,
                line=line,
                column=getattr(node, "col_offset", 0) + 1,
                rule_id="MEGH021",
                severity=Severity.ERROR,
                message=message,
            )
        )

    # -- phase 1: construction sites -------------------------------------
    def collect_constructions(self) -> None:
        for function in self._hot_functions():
            locals_owned: Dict[str, Tuple[str, int]] = {}
            for statement in function.body():
                for node in ast.walk(statement):
                    if isinstance(node, ast.Assign):
                        self._construction_assign(function, node, locals_owned)

    def _construction_assign(
        self,
        function: FunctionInfo,
        node: ast.Assign,
        locals_owned: Dict[str, Tuple[str, int]],
    ) -> None:
        owning = _owning_constructor(node.value)
        source: Optional[Tuple[str, int]] = owning
        if source is None and isinstance(node.value, ast.Name):
            source = locals_owned.get(node.value.id)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if owning is not None:
                    locals_owned[target.id] = owning
                else:
                    locals_owned.pop(target.id, None)
                continue
            if not isinstance(target, ast.Attribute):
                continue
            buffer = target.attr
            declared = ABI_BUFFER_DTYPES.get(buffer)
            if declared is None:
                continue
            if source is None:
                self._report(
                    function,
                    node,
                    f"ABI buffer '{buffer}' is rebound from an expression "
                    "that is not a provably owning C-contiguous constructor "
                    "(np.empty/zeros/ones/full, directly or via a local); "
                    "the C kernel would read through an unowned or "
                    "non-contiguous pointer",
                )
                continue
            dtype, line = source
            if dtype != declared:
                self._report(
                    function,
                    node,
                    f"ABI buffer '{buffer}' is declared {declared} in "
                    f"ABI_BUFFER_DTYPES but constructed with dtype {dtype}; "
                    "the C kernel reads raw memory at the declared element "
                    "width",
                )
                continue
            self.constructions.setdefault(buffer, []).append(
                f"{function.module.path}:{line} [{dtype}]"
            )

    # -- phase 2: boundary sites -----------------------------------------
    def certify_boundaries(self) -> None:
        for function in self._hot_functions():
            locals_owned: Dict[str, Tuple[str, int]] = {}
            aliases: Dict[str, str] = {}
            contract = SHAPE_CONTRACTS.get(function.name)
            contracted_params: Dict[str, str] = {}
            if contract is not None:
                declared = set(function.parameters())
                for name, param in contract.params:
                    if (
                        param is not None
                        and name in declared
                        and param.require_owned
                        and param.require_contiguous
                        and param.shape.dtype in _ABI_DTYPES
                    ):
                        contracted_params[name] = param.shape.dtype
            for statement in function.body():
                for node in ast.walk(statement):
                    if isinstance(node, ast.Assign):
                        self._track_locals(node, locals_owned, aliases)
                    elif (
                        isinstance(node, ast.Attribute)
                        and node.attr == "ctypes"
                    ):
                        self._certify_site(
                            function,
                            node,
                            locals_owned,
                            aliases,
                            contracted_params,
                        )

    def _track_locals(
        self,
        node: ast.Assign,
        locals_owned: Dict[str, Tuple[str, int]],
        aliases: Dict[str, str],
    ) -> None:
        owning = _owning_constructor(node.value)
        alias_of: Optional[str] = None
        if isinstance(node.value, ast.Attribute):
            if node.value.attr in ABI_BUFFER_DTYPES:
                alias_of = node.value.attr
        elif isinstance(node.value, ast.Name):
            alias_of = aliases.get(node.value.id)
            if owning is None:
                owning = locals_owned.get(node.value.id)
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if owning is not None:
                locals_owned[target.id] = owning
                aliases.pop(target.id, None)
            elif alias_of is not None:
                aliases[target.id] = alias_of
                locals_owned.pop(target.id, None)
            else:
                locals_owned.pop(target.id, None)
                aliases.pop(target.id, None)

    def _certify_site(
        self,
        function: FunctionInfo,
        node: ast.Attribute,
        locals_owned: Dict[str, Tuple[str, int]],
        aliases: Dict[str, str],
        contracted_params: Dict[str, str],
    ) -> None:
        base = node.value
        line = getattr(node, "lineno", 1)
        path = function.module.path
        if isinstance(base, ast.Attribute):
            buffer = base.attr
            declared = ABI_BUFFER_DTYPES.get(buffer)
            if declared is None:
                self._report(
                    function,
                    node,
                    f"'.ctypes' taken on attribute '{buffer}' which is not "
                    "declared in ABI_BUFFER_DTYPES; every buffer crossing "
                    "the C ABI must be declared so its construction can be "
                    "certified",
                )
                return
            witnesses = self.constructions.get(buffer)
            if not witnesses:
                self._report(
                    function,
                    node,
                    f"'.ctypes' taken on ABI buffer '{buffer}' but no "
                    "witnessed owning construction site exists for it in "
                    "the hot packages",
                )
                return
            self.report.certificates.append(
                AbiCertificate(
                    path=path,
                    line=line,
                    buffer=buffer,
                    dtype=declared,
                    witness="constructed at " + "; ".join(sorted(witnesses)),
                )
            )
            return
        if isinstance(base, ast.Name):
            name = base.id
            if name in aliases:
                buffer = aliases[name]
                declared = ABI_BUFFER_DTYPES[buffer]
                witnesses = self.constructions.get(buffer)
                if not witnesses:
                    self._report(
                        function,
                        node,
                        f"'.ctypes' taken on '{name}' (alias of ABI buffer "
                        f"'{buffer}') but no witnessed owning construction "
                        "site exists for that buffer",
                    )
                    return
                self.report.certificates.append(
                    AbiCertificate(
                        path=path,
                        line=line,
                        buffer=buffer,
                        dtype=declared,
                        witness=(
                            f"alias '{name}' -> '{buffer}', constructed at "
                            + "; ".join(sorted(witnesses))
                        ),
                    )
                )
                return
            if name in locals_owned:
                dtype, construction_line = locals_owned[name]
                if dtype not in _ABI_DTYPES:
                    self._report(
                        function,
                        node,
                        f"'.ctypes' taken on local '{name}' constructed "
                        f"with dtype {dtype}; the C ABI accepts exactly "
                        "int64/float64 (uint8 only for declared flag "
                        "buffers)",
                    )
                    return
                self.report.certificates.append(
                    AbiCertificate(
                        path=path,
                        line=line,
                        buffer=name,
                        dtype=dtype,
                        witness=(
                            f"local owning constructor at {path}:"
                            f"{construction_line}"
                        ),
                    )
                )
                return
            if name in contracted_params:
                self.report.certificates.append(
                    AbiCertificate(
                        path=path,
                        line=line,
                        buffer=name,
                        dtype=contracted_params[name],
                        witness=(
                            f"contract on {function.qualname} parameter "
                            f"'{name}' (owned+contiguous, discharged at "
                            "call sites by MEGH022)"
                        ),
                    )
                )
                return
            self._report(
                function,
                node,
                f"'.ctypes' taken on '{name}' with no witnessed path to an "
                "owning C-contiguous construction (not a declared ABI "
                "buffer, alias, owning local, or contracted parameter)",
            )
            return
        self._report(
            function,
            node,
            "'.ctypes' taken on a compound expression; bind the array to a "
            "name or declared attribute first so its construction can be "
            "certified",
        )

    # -- helpers ---------------------------------------------------------
    def _hot_functions(self) -> List[FunctionInfo]:
        return [
            function
            for function in self.project.iter_functions()
            if in_hot_package(function, self.prefixes)
        ]


def check_kernel_abi(
    project: Project, prefixes: Sequence[str] = HOT_PREFIXES
) -> KernelAbiReport:
    """Certify every ``.ctypes`` ABI boundary in the hot packages."""
    checker = _AbiChecker(project, prefixes)
    checker.collect_constructions()
    checker.certify_boundaries()
    return checker.report
