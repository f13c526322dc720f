"""meghflow — whole-program dataflow analysis for the Megh reproduction.

Where the per-file meghlint rules (MEGH001–MEGH009) pattern-match one
AST at a time, the flow pass builds a project model — symbol table,
call resolution, light local types — across *all* files handed to one
lint invocation, and checks three properties that only hold (or break)
whole-program:

``MEGH010``
    RNG provenance: an unseeded ``numpy.random.Generator`` /
    ``random.Random`` created anywhere must not flow — through calls,
    returns, dataclass fields, or attribute stores — into
    ``repro.cloudsim`` / ``repro.core`` / ``repro.workloads``.
``MEGH011``
    Dirty-flag invalidation: every mutation of a declared
    lazily-aggregated field (``DatacenterArrays`` vectors,
    ``SparseMatrix`` backing store, ``RewardVector`` storage) must set
    its paired flag / bump its counter on every path to function exit.
``MEGH012``
    dtype/axis discipline in ``repro.core`` / ``repro.cloudsim``:
    canonical dtypes only, no N-vs-M broadcasts, no silent int/float
    mixing, no Python-scalar reductions over ndarrays.

The entry point is :func:`run_flow`, invoked by the lint engine with
the modules it already parsed (parse-once: the same ASTs feed the
per-file rules and this pass).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.callgraph import LocalTypes
from repro.analysis.flow.dirty import check_dirty_flags
from repro.analysis.flow.dtypes import check_dtype_discipline
from repro.analysis.flow.invariants import (
    FIELD_TYPES,
    METHOD_TYPES,
    MUTATION_INVARIANTS,
    ArrayType,
    MutationInvariant,
)
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
)
from repro.analysis.flow.rng import check_rng_provenance

__all__ = [
    "FLOW_RULES",
    "run_flow",
    "Project",
    "ModuleInfo",
    "FunctionInfo",
    "ClassInfo",
    "LocalTypes",
    "build_project",
    "MutationInvariant",
    "MUTATION_INVARIANTS",
    "ArrayType",
    "FIELD_TYPES",
    "METHOD_TYPES",
    "check_rng_provenance",
    "check_dirty_flags",
    "check_dtype_discipline",
]

#: rule id -> (default severity, one-line summary). The registry the
#: engine/CLI consult for ``--select``/``--ignore`` validation and
#: ``--list-rules`` output.
FLOW_RULES: Dict[str, Tuple[Severity, str]] = {
    "MEGH010": (
        Severity.ERROR,
        "unseeded RNG flows into repro.cloudsim/core/workloads "
        "(whole-program taint)",
    ),
    "MEGH011": (
        Severity.ERROR,
        "lazily-aggregated field mutated without setting its paired "
        "dirty flag / counter on every path",
    ),
    "MEGH012": (
        Severity.ERROR,
        "dtype/axis discipline in hot paths: non-canonical dtypes, "
        "N-vs-M broadcasts, int/float mixing, Python reductions",
    ),
}


def run_flow(
    parsed: Sequence[Tuple[Union[str, Path], ast.Module]],
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    project: Optional[Project] = None,
) -> List[Diagnostic]:
    """Run the enabled flow rules over already-parsed modules.

    ``parsed`` pairs each path with the AST the engine produced for the
    per-file rules — the flow pass never re-parses.  ``select`` /
    ``ignore`` carry the same semantics as the per-file engine: when
    ``select`` is given only those rule ids run; ``ignore`` always
    subtracts.  ``project`` lets the engine share one project model
    across this pass and meghshape (build-once); when omitted it is
    built here from ``parsed``.
    """
    enabled = set(FLOW_RULES)
    if select is not None:
        enabled &= select
    if ignore is not None:
        enabled -= ignore
    if not enabled:
        return []
    if project is None:
        project = build_project(parsed)
    diagnostics: List[Diagnostic] = []
    if "MEGH010" in enabled:
        diagnostics.extend(check_rng_provenance(project))
    if "MEGH011" in enabled:
        diagnostics.extend(check_dirty_flags(project))
    if "MEGH012" in enabled:
        diagnostics.extend(check_dtype_discipline(project))
    return diagnostics
