"""MEGH010 — interprocedural RNG seed provenance.

MEGH001 flags the *call* ``np.random.default_rng()`` with no seed;
this pass flags the *value*: an RNG constructed without a seed anywhere
in the project that flows — through assignments, returns, call
arguments, attribute stores, or dataclass/constructor fields — into the
simulation packages (``repro.cloudsim``, ``repro.core``,
``repro.workloads`` by default).  An unseeded generator handed to
``Simulation.run`` through three helper functions is exactly as fatal
to reproducibility as one constructed inline, and no per-file rule can
see it.

The analysis is a forward taint propagation with function summaries:

1. every function is evaluated intraprocedurally, tracking which local
   names hold *unseeded-RNG-tainted* values ("unseeded" colors) and
   which hold values derived from the function's own parameters
   ("param" colors);
2. summaries (``returns_unseeded``, ``flowing_params``) are iterated to
   a fixed point over the whole project, so taint crosses call
   boundaries in both directions;
3. a finding is anchored at the *creation site* of the unseeded RNG,
   with the witness sink (the call or attribute store that enters a
   target package) named in the message — suppressions therefore
   annotate the construction, which is where the fix (plumbing a seed)
   belongs.

Objects constructed with a tainted argument become tainted themselves
(``Config(rng=unseeded)`` taints ``Config``), which is how dataclass
fields carry taint without field-sensitive tracking.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.flow.callgraph import LocalTypes, resolve_call
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    Project,
    dotted_name,
)

__all__ = ["check_rng_provenance", "TARGET_PREFIXES", "UNSEEDED_FACTORIES"]

#: Packages an unseeded RNG must never reach.
TARGET_PREFIXES: Tuple[str, ...] = (
    "repro.cloudsim",
    "repro.core",
    "repro.workloads",
)

#: RNG constructors that draw OS entropy when called with no arguments.
UNSEEDED_FACTORIES: Tuple[str, ...] = (
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
    "random.Random",
)

_MAX_FIXPOINT_ROUNDS = 12


@dataclass(eq=False)  # identity semantics: colors live in sets
class _Color:
    """One taint color: either an unseeded creation or a parameter."""

    kind: str  # "unseeded" | "param"
    origin: Optional[ast.Call] = None
    origin_path: str = ""
    param: str = ""
    reported: bool = False


@dataclass
class _Summary:
    returns_unseeded: bool = False
    #: Parameter name -> witness qualname inside a target package.
    flowing_params: Dict[str, str] = field(default_factory=dict)

    def key(self) -> Tuple[bool, Tuple[Tuple[str, str], ...]]:
        return (
            self.returns_unseeded,
            tuple(sorted(self.flowing_params.items())),
        )


def _in_targets(qualname: Optional[str], prefixes: Sequence[str]) -> bool:
    if qualname is None:
        return False
    return any(
        qualname == prefix or qualname.startswith(prefix + ".")
        for prefix in prefixes
    )


def _callee_parameters(
    project: Project, callee: str
) -> Optional[List[str]]:
    """Parameter names of a project callee, ``self``/``cls`` stripped."""
    symbol = project.lookup(callee)
    if isinstance(symbol, ClassInfo):
        init = project.method_of(symbol, "__init__")
        if init is None:
            return None
        return init.parameters()[1:]
    if isinstance(symbol, FunctionInfo):
        names = symbol.parameters()
        if symbol.class_name is not None and names[:1] in (["self"], ["cls"]):
            return names[1:]
        return names
    return None


class _FunctionTaint:
    """Single-function forward taint walk against current summaries."""

    def __init__(
        self,
        project: Project,
        function: FunctionInfo,
        summaries: Dict[str, _Summary],
        prefixes: Sequence[str],
        colors: Dict[Tuple[str, int, int], _Color],
        emit: Optional[List[Diagnostic]],
    ) -> None:
        self.project = project
        self.function = function
        self.summaries = summaries
        self.prefixes = prefixes
        self.colors = colors
        self.emit = emit
        self.local_types = LocalTypes(project, function)
        self.summary = summaries.setdefault(function.qualname, _Summary())
        self.tainted: Dict[str, Set[_Color]] = {}
        for name in function.parameters():
            if name in ("self", "cls"):
                continue
            self.tainted[name] = {_Color(kind="param", param=name)}
        self.in_target_module = _in_targets(
            function.module.name, prefixes
        )

    # -- expression taint ------------------------------------------------
    def _creation_color(self, call: ast.Call) -> Optional[_Color]:
        callee = resolve_call(
            self.project, self.function, call, self.local_types
        )
        if callee in UNSEEDED_FACTORIES and not call.args and not call.keywords:
            key = (
                self.function.module.path,
                call.lineno,
                call.col_offset,
            )
            color = self.colors.get(key)
            if color is None:
                color = _Color(
                    kind="unseeded",
                    origin=call,
                    origin_path=self.function.module.path,
                )
                self.colors[key] = color
            return color
        return None

    def eval(self, expression: Optional[ast.expr]) -> Set[_Color]:
        if expression is None:
            return set()
        if isinstance(expression, ast.Name):
            return set(self.tainted.get(expression.id, ()))
        if isinstance(expression, ast.Attribute):
            return self.eval(expression.value)
        if isinstance(expression, ast.Call):
            return self._eval_call(expression)
        if isinstance(expression, (ast.Tuple, ast.List, ast.Set)):
            colors: Set[_Color] = set()
            for element in expression.elts:
                colors |= self.eval(element)
            return colors
        if isinstance(expression, ast.IfExp):
            return self.eval(expression.body) | self.eval(expression.orelse)
        if isinstance(expression, ast.NamedExpr):
            colors = self.eval(expression.value)
            self.tainted[expression.target.id] = set(colors)
            return colors
        if isinstance(expression, ast.Starred):
            return self.eval(expression.value)
        return set()

    def _eval_call(self, call: ast.Call) -> Set[_Color]:
        created = self._creation_color(call)
        if created is not None:
            if self.in_target_module:
                self._report_creation_in_target(created)
            return {created}
        callee = resolve_call(
            self.project, self.function, call, self.local_types
        )
        result: Set[_Color] = set()
        if callee is not None:
            summary = self.summaries.get(callee)
            if summary is None and callee in self.project.classes:
                init = self.project.method_of(
                    self.project.classes[callee], "__init__"
                )
                if init is not None:
                    summary = self.summaries.get(init.qualname)
            if summary is not None and summary.returns_unseeded:
                key = (
                    self.function.module.path,
                    call.lineno,
                    call.col_offset,
                )
                color = self.colors.get(key)
                if color is None:
                    color = _Color(
                        kind="unseeded",
                        origin=call,
                        origin_path=self.function.module.path,
                    )
                    self.colors[key] = color
                result.add(color)
        # Constructed objects carry their tainted arguments (dataclass
        # fields, config objects); plain external calls do not.
        if callee is not None and callee in self.project.classes:
            for argument in list(call.args) + [
                keyword.value for keyword in call.keywords
            ]:
                result |= self.eval(argument)
        return result

    # -- sinks -----------------------------------------------------------
    def _report(self, color: _Color, witness: str, via: str) -> None:
        if color.kind == "param":
            self.summary.flowing_params.setdefault(color.param, witness)
            return
        if self.emit is None or color.reported or color.origin is None:
            return
        color.reported = True
        self.emit.append(
            Diagnostic(
                path=color.origin_path,
                line=color.origin.lineno,
                column=color.origin.col_offset + 1,
                rule_id="MEGH010",
                severity=Severity.ERROR,
                message=(
                    "RNG constructed without a seed here flows into "
                    f"{witness} ({via}); plumb a seed/rng parameter "
                    "through so the harness controls the stream"
                ),
            )
        )

    def _report_creation_in_target(self, color: _Color) -> None:
        self._report(
            color,
            self.function.qualname,
            "constructed directly inside a simulation package",
        )

    def _check_call_sinks(self, call: ast.Call) -> None:
        callee = resolve_call(
            self.project, self.function, call, self.local_types
        )
        if callee is None:
            return
        arguments: List[Tuple[Optional[str], ast.expr]] = [
            (None, argument) for argument in call.args
        ]
        arguments.extend(
            (keyword.arg, keyword.value) for keyword in call.keywords
        )
        tainted_args = [
            (position, name, self.eval(value))
            for position, (name, value) in enumerate(arguments)
        ]
        if not any(colors for _, _, colors in tainted_args):
            return
        if _in_targets(callee, self.prefixes):
            for _, _, colors in tainted_args:
                for color in colors:
                    self._report(color, callee, "passed as an argument")
            return
        parameters = _callee_parameters(self.project, callee)
        if parameters is None:
            return
        summary = self._summary_for(callee)
        if summary is None:
            return
        for position, name, colors in tainted_args:
            if not colors:
                continue
            parameter = name
            if parameter is None and position < len(parameters):
                parameter = parameters[position]
            if parameter is None:
                continue
            witness = summary.flowing_params.get(parameter)
            if witness is not None:
                for color in colors:
                    self._report(
                        color,
                        witness,
                        f"via {callee}({parameter}=...)",
                    )

    def _summary_for(self, callee: str) -> Optional[_Summary]:
        symbol = self.project.lookup(callee)
        if isinstance(symbol, ClassInfo):
            init = self.project.method_of(symbol, "__init__")
            if init is None:
                return None
            return self.summaries.get(init.qualname)
        if isinstance(symbol, FunctionInfo):
            return self.summaries.get(symbol.qualname)
        return None

    # -- statement walk --------------------------------------------------
    def run(self) -> None:
        body = self.function.body()
        # Two passes so taint assigned late in a loop body reaches uses
        # earlier in the next iteration.
        for _ in range(2):
            for statement in body:
                self._walk_statement(statement)

    def _walk_statement(self, statement: ast.stmt) -> None:
        for node in _walk_shallow(statement):
            if isinstance(node, ast.Call):
                self._check_call_sinks(node)
        if isinstance(statement, ast.Assign):
            colors = self.eval(statement.value)
            for target in statement.targets:
                self._assign(target, colors)
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            self._assign(statement.target, self.eval(statement.value))
        elif isinstance(statement, ast.AugAssign):
            colors = self.eval(statement.value)
            if colors and isinstance(statement.target, ast.Name):
                existing = self.tainted.setdefault(statement.target.id, set())
                existing |= colors
        elif isinstance(statement, ast.Return):
            for color in self.eval(statement.value):
                if color.kind == "unseeded":
                    self.summary.returns_unseeded = True
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self.eval(statement.iter)
            for child in statement.body + statement.orelse:
                self._walk_statement(child)
        elif isinstance(statement, ast.While):
            for child in statement.body + statement.orelse:
                self._walk_statement(child)
        elif isinstance(statement, ast.If):
            for child in statement.body + statement.orelse:
                self._walk_statement(child)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for child in statement.body:
                self._walk_statement(child)
        elif isinstance(statement, ast.Try):
            for child in (
                statement.body
                + [s for h in statement.handlers for s in h.body]
                + statement.orelse
                + statement.finalbody
            ):
                self._walk_statement(child)
        elif isinstance(statement, ast.Expr):
            self.eval(statement.value)

    def _assign(self, target: ast.expr, colors: Set[_Color]) -> None:
        if isinstance(target, ast.Name):
            self.tainted[target.id] = set(colors)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, colors)
            return
        if isinstance(target, ast.Attribute) and colors:
            # Storing taint on an attribute of an object whose class
            # lives in a target package is itself a sink.
            receiver_class = self.local_types.class_of_expression(
                target.value
            )
            stored_in_target = (
                receiver_class is not None
                and _in_targets(receiver_class, self.prefixes)
            ) or (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.in_target_module
            )
            if stored_in_target:
                owner = receiver_class or self.function.qualname
                for color in colors:
                    self._report(
                        color,
                        owner,
                        f"stored on attribute {target.attr!r}",
                    )


def _walk_shallow(node: ast.AST) -> List[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/lambdas."""
    found: List[ast.AST] = []
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        found.append(current)
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)
    return found


def check_rng_provenance(
    project: Project,
    prefixes: Sequence[str] = TARGET_PREFIXES,
) -> List[Diagnostic]:
    """Run the MEGH010 taint analysis over a whole project."""
    summaries: Dict[str, _Summary] = {}
    colors: Dict[Tuple[str, int, int], _Color] = {}
    # Fixed point on summaries, findings suppressed.
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        before = {
            qualname: summary.key()
            for qualname, summary in summaries.items()
        }
        for function in project.iter_functions():
            _FunctionTaint(
                project, function, summaries, prefixes, colors, None
            ).run()
        after = {
            qualname: summary.key()
            for qualname, summary in summaries.items()
        }
        if before == after:
            break
    # Final reporting pass with stable summaries.
    diagnostics: List[Diagnostic] = []
    for color in colors.values():
        color.reported = False
    for function in project.iter_functions():
        _FunctionTaint(
            project, function, summaries, prefixes, colors, diagnostics
        ).run()
    return diagnostics
