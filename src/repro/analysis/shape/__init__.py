"""meghshape — symbolic shape / dtype / ABI abstract interpretation.

The vectorized hot paths (``repro.core``, ``repro.cloudsim``) are
array-native: the K×M candidate feasibility broadcast, the deferred
rank-k kernel with its C argument block, the struct-of-arrays
simulator.  The bugs that remain there are ones NumPy will not raise
on — an unintended broadcast that "works" when two extents coincide, a
dtype drift across the C/NumPy backend pair, a non-contiguous view
handed to the kernel as a raw pointer.  meghshape interprets each hot
function over a symbolic-shape domain (named dimensions ``N`` VMs,
``M`` PMs, ``K`` candidate rows, ``W`` window, ``d`` basis — see
:mod:`repro.analysis.shape.dims`) seeded from declared tables that
extend meghflow's ``FIELD_TYPES``/``METHOD_TYPES``, and proves five
properties:

``MEGH019``
    broadcast-rank mismatch: symbolic shapes that conflict outright,
    or align only by an implicit rank promotion not declared
    intentional (explicit ``[None, :]`` unit axes stay silent).
``MEGH020``
    dtype drift: platform-int ``np.arange``, stores that silently
    change a declared field dtype, returns that contradict the
    declared method dtype.
``MEGH021``
    kernel-ABI safety: every array whose ``.ctypes.data`` reaches the
    C argument block is provably C-contiguous, owned, and exactly the
    declared element type, with a witnessed path from construction
    site to boundary (:mod:`repro.analysis.shape.abi`).
``MEGH022``
    shape-contract violations at call boundaries, with a
    caller -> callee witness chain in the message.
``MEGH023``
    in-place aliasing hazards: ``out=``/view writes while another live
    view of the same base is read with a different region expression.

The entry point is :func:`run_shape`, invoked by the lint engine with
the modules it already parsed and — when the flow pass also ran — the
very project instance it used (parse-once, resolve-once).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.project import Project, build_project
from repro.analysis.shape.abi import (
    AbiCertificate,
    KernelAbiReport,
    check_kernel_abi,
)
from repro.analysis.shape.absint import HOT_PREFIXES, check_shapes
from repro.analysis.shape.dims import (
    ABI_BUFFER_DTYPES,
    DIMENSIONS,
    SHAPE_CONTRACTS,
    SHAPE_FIELD_TYPES,
    SHAPE_METHOD_TYPES,
    ShapeInfo,
)

__all__ = [
    "SHAPE_RULES",
    "run_shape",
    "check_shapes",
    "check_kernel_abi",
    "AbiCertificate",
    "KernelAbiReport",
    "ShapeInfo",
    "DIMENSIONS",
    "SHAPE_FIELD_TYPES",
    "SHAPE_METHOD_TYPES",
    "SHAPE_CONTRACTS",
    "ABI_BUFFER_DTYPES",
    "HOT_PREFIXES",
]

#: rule id -> (default severity, one-line summary). Consulted by the
#: engine/CLI for ``--select``/``--ignore`` validation and
#: ``--list-rules`` output, exactly like ``FLOW_RULES``.
SHAPE_RULES: Dict[str, Tuple[Severity, str]] = {
    "MEGH019": (
        Severity.ERROR,
        "broadcast-rank mismatch: symbolic shapes conflict or align only "
        "by implicit broadcasting not declared intentional",
    ),
    "MEGH020": (
        Severity.ERROR,
        "dtype drift on hot paths: platform-int arange, stores/returns "
        "that silently change a declared dtype",
    ),
    "MEGH021": (
        Severity.ERROR,
        "kernel-ABI safety: array reaching the C argument block without "
        "a witnessed owned C-contiguous int64/float64 construction",
    ),
    "MEGH022": (
        Severity.ERROR,
        "shape-contract violation at a call boundary (caller's symbolic "
        "shape incompatible with the callee's declared contract)",
    ),
    "MEGH023": (
        Severity.ERROR,
        "in-place aliasing hazard: out=/view write while another view of "
        "the same base is read with a different region",
    ),
}

_INTERPRETER_RULES = frozenset({"MEGH019", "MEGH020", "MEGH022", "MEGH023"})


def run_shape(
    parsed: Sequence[Tuple[Union[str, Path], ast.Module]],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    project: Optional[Project] = None,
) -> List[Diagnostic]:
    """Run the enabled meghshape rules over already-parsed modules.

    Mirrors :func:`repro.analysis.flow.run_flow`: ``parsed`` pairs each
    path with the AST the engine produced for the per-file rules, and
    ``project`` lets the engine hand over the instance the flow pass
    built so nothing is parsed or resolved twice.
    """
    enabled = set(SHAPE_RULES)
    if select is not None:
        enabled &= select
    if ignore is not None:
        enabled -= ignore
    if not enabled:
        return []
    if project is None:
        project = build_project(parsed)
    diagnostics: List[Diagnostic] = []
    if enabled & _INTERPRETER_RULES:
        diagnostics.extend(check_shapes(project, enabled & _INTERPRETER_RULES))
    if "MEGH021" in enabled:
        diagnostics.extend(check_kernel_abi(project).diagnostics)
    return diagnostics
