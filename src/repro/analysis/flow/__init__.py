"""meghflow — whole-program dirty-flag analysis for the Megh reproduction.

Where the per-file meghlint rules (MEGH001–MEGH009) pattern-match one
AST at a time, the flow pass builds a project model — modules, classes
and their methods — across *all* files handed to one lint invocation,
and checks one property that only holds (or breaks) whole-program:

``MEGH011``
    Dirty-flag invalidation: every mutation of a declared
    lazily-aggregated field (``DatacenterArrays`` vectors,
    ``SparseMatrix`` backing store, ``RewardVector`` storage) must set
    its paired flag / bump its counter on every path to function exit.

The same project model feeds meghshape (:mod:`repro.analysis.shape`),
which owns the ndarray dtype/axis rules (MEGH012, MEGH019–MEGH023).

The entry point is :func:`run_flow`, invoked by the lint engine with
the modules it already parsed (parse-once: the same ASTs feed the
per-file rules and this pass).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.dirty import check_dirty_flags
from repro.analysis.flow.invariants import (
    MUTATION_INVARIANTS,
    MutationInvariant,
)
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    build_project,
)

__all__ = [
    "FLOW_RULES",
    "run_flow",
    "Project",
    "ModuleInfo",
    "FunctionInfo",
    "ClassInfo",
    "build_project",
    "MutationInvariant",
    "MUTATION_INVARIANTS",
    "check_dirty_flags",
]

#: rule id -> (default severity, one-line summary). The registry the
#: engine/CLI consult for ``--select``/``--ignore`` validation and
#: ``--list-rules`` output.
FLOW_RULES: Dict[str, Tuple[Severity, str]] = {
    "MEGH011": (
        Severity.ERROR,
        "lazily-aggregated field mutated without setting its paired "
        "dirty flag / counter on every path",
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
    return check_dirty_flags(project)
