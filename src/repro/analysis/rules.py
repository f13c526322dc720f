"""The MEGH rule set: AST checks for this codebase's real failure modes.

Each rule targets a way a change could silently break the reproduction:

* **MEGH001** — unseeded randomness destroys run-to-run determinism;
* **MEGH002** — wall-clock reads leak host time into simulated results;
* **MEGH003** — float ``==``/``!=`` hides accumulation dust (Sherman–
  Morrison updates leave ~1e-16 residue exactly where naive code expects
  an exact zero);
* **MEGH004** — mutable default arguments alias state across schedulers;
* **MEGH005** — a scheduler/workload/policy constructor that builds an
  RNG must accept ``seed`` or ``rng`` so the harness can control it;
* **MEGH006** — bare/swallowed exceptions hide harness failures;
* **MEGH007** — ad-hoc multiprocessing bypasses the execution engine's
  determinism, caching, and fault-isolation guarantees;
* **MEGH008** — a ``for ... in range(<x>.dimension)`` loop in the
  numerical core scans all ``d = N x M`` one-hot coordinates, breaking
  the Section-5.2 claim that per-step work tracks the non-zeros
  actually touched;
* **MEGH009** — a per-entity ``for vm in ...vms`` / ``for pm in ...pms``
  loop in the simulator (``repro/cloudsim/``) is O(N) Python per call
  where the struct-of-arrays rewrite promises one vector pass; hot-path
  fleet iteration belongs in :mod:`repro.cloudsim.soa` expressions.

Rules are registered in :data:`RULE_REGISTRY` and run by
:mod:`repro.analysis.engine`.  Suppress a finding on its line with
``# meghlint: ignore[MEGH003] -- reason``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.analysis.diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class RuleContext:
    """What a rule sees: one parsed module plus its origin."""

    path: str
    tree: ast.Module
    source_lines: Tuple[str, ...]


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, context: RuleContext, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError("rule classes must define rule_id")
    if rule_class.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    RULE_REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rule_ids() -> List[str]:
    """Registered rule ids, sorted."""
    return sorted(RULE_REGISTRY)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call in the tree with its dotted callee name (if resolvable)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, dotted_name(node.func)


# ----------------------------------------------------------------------
# MEGH001 — unseeded randomness
# ----------------------------------------------------------------------

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

#: ``numpy.random`` members that do not draw from numpy's global RNG.
_SAFE_NP_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
    "RandomState",  # explicit construction still takes a seed argument
}

#: stdlib ``random`` module functions that draw from the shared global RNG.
_BANNED_STDLIB_RANDOM = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> qualified target for the module's absolute imports.

    ``import numpy.random as npr`` maps ``npr`` to ``numpy.random``;
    ``from numpy.random import default_rng as mk`` maps ``mk`` to
    ``numpy.random.default_rng``.  ``np`` means ``numpy`` unless the
    module binds it otherwise.
    """
    aliases = {"np": "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module
            and not node.level
        ):
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


@register
class UnseededRandomnessRule(Rule):
    """MEGH001: module-level RNG calls instead of an injected Generator.

    Calls are matched on their import-resolved name, so an unseeded
    factory is flagged however it was imported, and wherever its value
    goes — the finding sits at the creation, where the seed belongs.
    """

    rule_id = "MEGH001"
    severity = Severity.ERROR
    summary = (
        "randomness must flow through an explicitly seeded "
        "numpy Generator, never the process-global RNG"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        aliases = _import_aliases(context.tree)
        for node, name in walk_calls(context.tree):
            if name is None:
                continue
            head, _, rest = name.partition(".")
            target = aliases.get(head, head)
            qualified = f"{target}.{rest}" if rest else target
            module, _, member = qualified.rpartition(".")
            if qualified in UNSEEDED_FACTORIES:
                if not node.args and not node.keywords:
                    yield self.diagnostic(
                        context,
                        node,
                        f"{name}() without a seed draws OS entropy; pass a "
                        "seed (or SeedSequence) so runs are reproducible",
                    )
            elif module == "numpy.random":
                if member not in _SAFE_NP_RANDOM:
                    yield self.diagnostic(
                        context,
                        node,
                        f"{name}() uses numpy's process-global RNG; "
                        "use an injected np.random.Generator "
                        "(np.random.default_rng(seed)) instead",
                    )
            elif module == "random" and rest:
                # A bare name came from ``from random import ...``,
                # which is reported once, at the import.
                if member in _BANNED_STDLIB_RANDOM:
                    yield self.diagnostic(
                        context,
                        node,
                        f"{name}() uses the stdlib's shared global RNG; "
                        "use an injected np.random.Generator (or at least "
                        "a local random.Random(seed)) instead",
                    )
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                banned = [
                    alias.name
                    for alias in node.names
                    if alias.name in _BANNED_STDLIB_RANDOM
                ]
                if banned:
                    yield self.diagnostic(
                        context,
                        node,
                        "importing "
                        + ", ".join(sorted(banned))
                        + " from random pulls in the shared global RNG; "
                        "inject a seeded generator instead",
                    )


# ----------------------------------------------------------------------
# MEGH002 — wall-clock time in simulation code
# ----------------------------------------------------------------------

#: Wall-clock reads.  ``time.perf_counter`` / ``time.monotonic`` are
#: allowed: they measure durations (the Figure-6 quantity), not dates.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """MEGH002: wall-clock reads make simulated results time-dependent."""

    rule_id = "MEGH002"
    severity = Severity.ERROR
    summary = (
        "simulation/core code must not read the wall clock; simulated "
        "time comes from the step counter, durations from perf_counter"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        for node, name in walk_calls(context.tree):
            if name in _WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    context,
                    node,
                    f"{name}() reads the wall clock, coupling results to "
                    "when the run happened; derive time from the "
                    "simulation step (or use time.perf_counter for "
                    "duration measurements)",
                )


# ----------------------------------------------------------------------
# MEGH003 — float equality
# ----------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # -0.0, +1.0 and similar signed literals.
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_literal(node.operand)
    return False


@register
class FloatEqualityRule(Rule):
    """MEGH003: ``==``/``!=`` against float literals ignores float dust."""

    rule_id = "MEGH003"
    severity = Severity.WARNING
    summary = (
        "float equality is brittle under accumulation error; compare "
        "with math.isclose or an explicit epsilon"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_float_literal(operand) for operand in operands):
                yield self.diagnostic(
                    context,
                    node,
                    "float equality comparison; accumulated rounding "
                    "error makes exact comparison unreliable — use "
                    "math.isclose, an epsilon band, or an exact integer "
                    "state instead (annotate intentional sentinel checks "
                    "with '# meghlint: ignore[MEGH003] -- reason')",
                )


# ----------------------------------------------------------------------
# MEGH004 — mutable default arguments
# ----------------------------------------------------------------------


def _is_mutable_default(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in (
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.deque",
            "collections.OrderedDict",
            "collections.Counter",
        )
    return False


@register
class MutableDefaultRule(Rule):
    """MEGH004: mutable defaults alias state across instances and calls."""

    rule_id = "MEGH004"
    severity = Severity.ERROR
    summary = (
        "a mutable default is shared by every call; default to None "
        "(or use dataclasses.field(default_factory=...))"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: List[Optional[ast.AST]] = list(node.args.defaults)
            defaults.extend(node.args.kw_defaults)
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.diagnostic(
                        context,
                        default if default is not None else node,
                        f"mutable default argument in {node.name}(); the "
                        "object is created once and shared by every call "
                        "— default to None and construct inside the body",
                    )


# ----------------------------------------------------------------------
# MEGH005 — seed/rng plumbing in public constructors
# ----------------------------------------------------------------------

_SEED_PARAMETER_NAMES = {"seed", "rng", "generator", "seed_sequence"}


def _init_parameters(class_node: ast.ClassDef) -> Optional[List[str]]:
    for item in class_node.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "__init__"
        ):
            args = item.args
            names = [a.arg for a in args.posonlyargs]
            names.extend(a.arg for a in args.args)
            names.extend(a.arg for a in args.kwonlyargs)
            return names
    return None


def _is_rng_constructor(name: Optional[str]) -> bool:
    if name is None:
        return False
    return (
        name.endswith(".default_rng")
        or name == "default_rng"
        or name in ("random.Random", "np.random.RandomState")
    )


def _function_parameters(
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names.extend(a.arg for a in args.args)
    names.extend(a.arg for a in args.kwonlyargs)
    return names


def _unplumbed_rng_calls(class_node: ast.ClassDef) -> List[ast.Call]:
    """RNG constructions whose enclosing method lacks a seed parameter.

    A ``default_rng(...)`` call inside any method that itself accepts
    ``seed``/``rng`` (``__init__`` or an alternative constructor like a
    ``from_trace`` classmethod) is considered plumbed.
    """
    offenders: List[ast.Call] = []
    for item in class_node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            plumbed = bool(
                _SEED_PARAMETER_NAMES.intersection(_function_parameters(item))
            )
            if plumbed:
                continue
            for node, name in walk_calls(item):
                if _is_rng_constructor(name):
                    offenders.append(node)
        else:
            for node, name in walk_calls(item):
                if _is_rng_constructor(name):
                    offenders.append(node)
    return offenders


@register
class SeedPlumbingRule(Rule):
    """MEGH005: RNG-owning components must expose seed/rng injection."""

    rule_id = "MEGH005"
    severity = Severity.ERROR
    summary = (
        "a public class that constructs an RNG must take a seed or rng "
        "parameter in __init__ so the harness controls every stream"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_"):
                continue
            offenders = _unplumbed_rng_calls(node)
            if not offenders:
                continue
            parameters = _init_parameters(node) or []
            if _SEED_PARAMETER_NAMES.intersection(parameters):
                continue  # __init__ plumbs a seed; methods may reuse it
            for call in offenders:
                yield self.diagnostic(
                    context,
                    call,
                    f"class {node.name} constructs an RNG in a method "
                    "with no seed/rng parameter (and __init__ takes "
                    "none either); plumb a seed through so the harness "
                    "controls the stream",
                )


# ----------------------------------------------------------------------
# MEGH006 — bare / swallowed exceptions
# ----------------------------------------------------------------------

_BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in _BROAD_EXCEPTION_NAMES
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(element, ast.Name)
            and element.id in _BROAD_EXCEPTION_NAMES
            for element in handler.type.elts
        )
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    for statement in handler.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or Ellipsis
        return False
    return True


@register
class SwallowedExceptionRule(Rule):
    """MEGH006: silent failure hides broken runs from the harness."""

    rule_id = "MEGH006"
    severity = Severity.WARNING
    summary = (
        "bare except (or a broad handler that only passes) hides real "
        "failures; catch specific exceptions and act on them"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    context,
                    node,
                    "bare 'except:' also traps KeyboardInterrupt and "
                    "SystemExit; name the exception types you mean",
                )
            elif _is_broad_handler(node) and _swallows(node):
                yield self.diagnostic(
                    context,
                    node,
                    "broad exception handler silently discards the "
                    "error; log, re-raise, or narrow the type",
                )


# ----------------------------------------------------------------------
# MEGH007 — parallelism outside the execution engine
# ----------------------------------------------------------------------

_PARALLELISM_MODULES = {"multiprocessing", "concurrent.futures"}


def _is_engine_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "repro/engine/" in normalized or normalized.endswith(
        "repro/engine"
    )


def _banned_parallel_import(module: Optional[str]) -> Optional[str]:
    if module is None:
        return None
    for banned in _PARALLELISM_MODULES:
        if module == banned or module.startswith(banned + "."):
            return banned
    return None


@register
class AdHocParallelismRule(Rule):
    """MEGH007: process pools outside ``repro.engine`` skip its guarantees."""

    rule_id = "MEGH007"
    severity = Severity.ERROR
    summary = (
        "multiprocessing/concurrent.futures belong inside repro.engine; "
        "everything else should submit jobs to the ExecutionEngine"
    )

    _MESSAGE = (
        "direct use of {module!r} bypasses the execution engine's "
        "deterministic ordering, result cache, and crash isolation; "
        "route parallel work through repro.engine.ExecutionEngine"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        if _is_engine_path(context.path):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    banned = _banned_parallel_import(alias.name)
                    if banned:
                        yield self.diagnostic(
                            context,
                            node,
                            self._MESSAGE.format(module=banned),
                        )
            elif isinstance(node, ast.ImportFrom):
                banned = _banned_parallel_import(node.module)
                if banned:
                    yield self.diagnostic(
                        context, node, self._MESSAGE.format(module=banned)
                    )
                elif node.module == "concurrent" and any(
                    alias.name == "futures" for alias in node.names
                ):
                    yield self.diagnostic(
                        context,
                        node,
                        self._MESSAGE.format(module="concurrent.futures"),
                    )


# ----------------------------------------------------------------------
# MEGH008 — O(d) full-dimension scans in the numerical core
# ----------------------------------------------------------------------


def _is_core_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "repro/core/" in normalized or normalized.endswith("repro/core")


def _mentions_dimension(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "dimension":
        return True
    if isinstance(node, ast.Name) and node.id == "dimension":
        return True
    return False


@register
class FullDimensionScanRule(Rule):
    """MEGH008: ``range(x.dimension)`` loops defeat sparsity in the core."""

    rule_id = "MEGH008"
    severity = Severity.ERROR
    summary = (
        "iterating range(<x>.dimension) in repro/core scans all d = N x M "
        "coordinates; walk the stored non-zeros (column index, row "
        "support) instead"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        if not _is_core_path(context.path):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            iterator = node.iter
            if not isinstance(iterator, ast.Call):
                continue
            if dotted_name(iterator.func) != "range":
                continue
            if any(
                _mentions_dimension(argument)
                for argument in iterator.args
            ):
                yield self.diagnostic(
                    context,
                    node,
                    "loop over range(dimension) visits every one-hot "
                    "coordinate — O(d) per call where the paper promises "
                    "O(nnz touched); iterate the sparse support "
                    "(rows_with_column, row_view, z keys) instead, or "
                    "annotate a deliberate dense scan with "
                    "'# meghlint: ignore[MEGH008] -- reason'",
                )


# ----------------------------------------------------------------------
# MEGH009 — per-entity fleet loops in the simulator
# ----------------------------------------------------------------------

_FLEET_ATTRIBUTES = {"vms", "pms", "_vms", "_pms"}

#: Wrappers whose first argument is the real iterable.
_ITERATION_WRAPPERS = {"enumerate", "sorted", "list", "tuple", "reversed"}

#: Dict-view methods: ``accountant.vms.values()`` still walks the fleet.
_DICT_VIEW_METHODS = {"values", "keys", "items"}


#: Agent-side modules on the decide() hot path, covered since the
#: candidate pipeline went array-native.
_AGENT_HOT_PATHS = (
    "repro/core/agent.py",
    "repro/core/candidates.py",
)


def _is_fleet_loop_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    if "repro/cloudsim/" in normalized:
        return True
    return any(normalized.endswith(hot) for hot in _AGENT_HOT_PATHS)


def _fleet_attribute(node: ast.AST) -> Optional[str]:
    """The ``vms``/``pms`` attribute an iterable expression walks, if any.

    Unwraps ``enumerate()``/``sorted()``-style wrappers and
    ``.values()``/``.items()`` dict views so that
    ``sorted(self._vms)``, ``enumerate(datacenter.pms)`` and
    ``self.vms.values()`` all resolve to their fleet attribute.
    """
    if isinstance(node, ast.Attribute):
        if node.attr in _FLEET_ATTRIBUTES:
            return node.attr
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ITERATION_WRAPPERS
            and node.args
        ):
            return _fleet_attribute(node.args[0])
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEW_METHODS
        ):
            return _fleet_attribute(func.value)
    return None


@register
class PerEntityFleetLoopRule(Rule):
    """MEGH009: Python-level fleet loops defeat the SoA simulator core."""

    rule_id = "MEGH009"
    severity = Severity.ERROR
    summary = (
        "per-entity vm/pm loops in repro/cloudsim and the agent's "
        "decide() hot path are O(N) Python per step; express fleet-wide "
        "work as DatacenterArrays vector operations (cold paths: "
        "suppress with a reason)"
    )

    _MESSAGE = (
        "loop over {attribute!r} walks the fleet one entity at a time — "
        "O(N) Python in code the struct-of-arrays rewrite vectorized; "
        "use DatacenterArrays expressions for per-step work, or mark a "
        "deliberate cold/compat path with "
        "'# meghlint: ignore[MEGH009] -- reason'"
    )

    def check(self, context: RuleContext) -> Iterator[Diagnostic]:
        if not _is_fleet_loop_path(context.path):
            return
        for node in ast.walk(context.tree):
            iterators: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterators.append(node.iter)
            elif isinstance(
                node,
                (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp),
            ):
                iterators.extend(gen.iter for gen in node.generators)
            for iterator in iterators:
                attribute = _fleet_attribute(iterator)
                if attribute is not None:
                    yield self.diagnostic(
                        context,
                        iterator,
                        self._MESSAGE.format(attribute=attribute),
                    )


def build_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    factory: Optional[Callable[[Type[Rule]], Rule]] = None,
) -> List[Rule]:
    """Instantiate registered rules, honouring select/ignore id sets."""
    selected = set(select) if select is not None else set(RULE_REGISTRY)
    ignored = set(ignore) if ignore is not None else set()
    unknown = (selected | ignored) - set(RULE_REGISTRY)
    if unknown:
        raise ValueError(
            "unknown rule id(s): " + ", ".join(sorted(unknown))
        )
    make = factory if factory is not None else (lambda cls: cls())
    return [
        make(RULE_REGISTRY[rule_id])
        for rule_id in sorted(selected - ignored)
    ]
