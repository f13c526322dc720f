"""Project model for meghflow: modules, symbols, and name resolution.

meghlint's per-file rules (MEGH001–009) see one ``ast.Module`` at a
time; the flow rules (MEGH010–012) are properties of *calls and def-use
chains* that span modules.  This module builds the shared
substrate: a :class:`Project` holding every parsed module exactly once
(the engine hands over the ASTs it already parsed — nothing is re-read
or re-parsed), a per-module import table, and a symbol table of
top-level functions, classes, and methods addressable by fully
qualified dotted name.

Resolution is deliberately conservative: a name that cannot be traced
to a project symbol or a recognized external (``numpy.random.*``,
``random.Random``) resolves to ``None`` and the flow rules stay silent
about it.  False silence is acceptable; false noise is not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Project",
    "module_name_for",
]

#: Module-body pseudo-function suffix (top-level statements).
MODULE_BODY = "<module>"


def module_name_for(path: Union[str, Path]) -> Optional[str]:
    """Dotted module name derived from the package layout on disk.

    Walks parent directories while they contain an ``__init__.py``, so
    ``src/repro/cloudsim/soa.py`` resolves to ``repro.cloudsim.soa``
    regardless of the current working directory, and a fixture package
    under ``tests/analysis/flow/fixtures/<case>/repro/...`` resolves to
    a ``repro.*`` name rooted at the fixture directory.
    """
    file_path = Path(path)
    if file_path.suffix != ".py":
        return None
    parts: List[str] = [] if file_path.stem == "__init__" else [file_path.stem]
    current = file_path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    if not parts:
        return None
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One analyzable body: a function, method, or module top level."""

    qualname: str
    module: "ModuleInfo"
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def parameters(self) -> List[str]:
        """Positional + keyword parameter names, in declaration order."""
        if isinstance(self.node, ast.Module):
            return []
        args = self.node.args
        names = [a.arg for a in args.posonlyargs]
        names.extend(a.arg for a in args.args)
        names.extend(a.arg for a in args.kwonlyargs)
        return names

    def body(self) -> List[ast.stmt]:
        if isinstance(self.node, ast.Module):
            # Module pseudo-function: top-level statements except defs,
            # which are analyzed as their own FunctionInfo bodies.
            return [
                statement
                for statement in self.node.body
                if not isinstance(
                    statement,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ]
        return list(self.node.body)


@dataclass
class ClassInfo:
    """A top-level class: its methods, bases, and ``__init__`` attrs."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base-class names exactly as written (resolved lazily).
    base_names: Tuple[str, ...] = ()
    #: ``self.<attr> = SomeClass(...)`` types seen in ``__init__``
    #: (attribute name -> fully qualified class name).
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One parsed module plus its local symbol and import tables."""

    name: str
    path: str
    tree: ast.Module
    #: Local alias -> fully qualified external/project name.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_body: Optional[FunctionInfo] = None


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


def _import_table(module_name: str, tree: ast.Module) -> Dict[str, str]:
    """Map every locally bound import alias to its qualified target."""
    table: Dict[str, str] = {}
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; dotted access resolves
                    # through the root package name.
                    root = alias.name.split(".", 1)[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the containing package.
                anchor_parts = module_name.split(".")
                # level=1 is "the containing package" for a plain module.
                anchor = anchor_parts[: len(anchor_parts) - node.level]
                if base:
                    anchor.append(base)
                base = ".".join(anchor)
            elif not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    del package
    return table


class Project:
    """Whole-program symbol table over a set of already-parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        #: Fully qualified name -> FunctionInfo (functions *and* methods).
        self.functions: Dict[str, FunctionInfo] = {}
        #: Fully qualified name -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        self._anonymous = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_module(
        self, path: Union[str, Path], tree: ast.Module
    ) -> ModuleInfo:
        path = str(path)
        name = module_name_for(path)
        if name is None or name in self.modules:
            if name in self.modules:
                # Two files mapping to one dotted name (e.g. fixtures
                # linted together); keep both analyzable under unique keys.
                name = f"{name}#{self._anonymous}"
            else:
                name = f"<anonymous:{self._anonymous}>"
            self._anonymous += 1
        module = ModuleInfo(name=name, path=path, tree=tree)
        module.imports = _import_table(name, tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{name}.{node.name}", module=module, node=node
                )
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
        module.module_body = FunctionInfo(
            qualname=f"{name}.{MODULE_BODY}", module=module, node=tree
        )
        self.functions[module.module_body.qualname] = module.module_body
        self.modules[name] = module
        self.by_path[path] = module
        return module

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        bases = tuple(
            base_name
            for base_name in (dotted_name(base) for base in node.bases)
            if base_name is not None
        )
        info = ClassInfo(
            qualname=qualname, module=module, node=node, base_names=bases
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualname=f"{qualname}.{item.name}",
                    module=module,
                    node=item,
                    class_name=node.name,
                )
                info.methods[item.name] = method
                self.functions[method.qualname] = method
        info.attr_types = self._init_attr_types(module, info)
        module.classes[node.name] = info
        self.classes[qualname] = info

    def _init_attr_types(
        self, module: ModuleInfo, info: ClassInfo
    ) -> Dict[str, str]:
        """``self.x = SomeClass(...)`` bindings visible in ``__init__``."""
        init = info.methods.get("__init__")
        types: Dict[str, str] = {}
        if init is None or isinstance(init.node, ast.Module):
            return types
        for statement in ast.walk(init.node):
            if not isinstance(statement, ast.Assign):
                continue
            value = statement.value
            if not isinstance(value, ast.Call):
                continue
            callee = dotted_name(value.func)
            if callee is None:
                continue
            resolved = self.resolve(module, callee)
            if resolved is None or resolved not in self.classes:
                continue
            for target in statement.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    types[target.attr] = resolved
        return types

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Fully qualified name for ``dotted`` as seen from ``module``.

        Follows local definitions first, then the import table, then
        project-absolute names; re-exports (``from .simulation import
        Simulation`` in a package ``__init__``) are chased through
        :meth:`lookup`.  Unresolvable names yield ``None``.
        """
        head, _, rest = dotted.partition(".")
        if head in module.classes:
            base = module.classes[head].qualname
        elif head in module.functions:
            base = module.functions[head].qualname
        elif head in module.imports:
            base = module.imports[head]
        elif head in self.modules:
            base = head
        else:
            return None
        return f"{base}.{rest}" if rest else base

    def lookup(
        self, qualified: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Union[FunctionInfo, ClassInfo, ModuleInfo]]:
        """Project symbol for a fully qualified name, chasing re-exports."""
        seen = _seen if _seen is not None else set()
        if qualified in seen:
            return None
        seen.add(qualified)
        if qualified in self.functions:
            return self.functions[qualified]
        if qualified in self.classes:
            return self.classes[qualified]
        if qualified in self.modules:
            return self.modules[qualified]
        # Method of a known class: Class.qualname + "." + method.
        owner, _, attr = qualified.rpartition(".")
        if not owner:
            return None
        owner_symbol = self.lookup(owner, seen)
        if isinstance(owner_symbol, ClassInfo):
            method = self.method_of(owner_symbol, attr)
            if method is not None:
                return method
            return None
        if isinstance(owner_symbol, ModuleInfo):
            if attr in owner_symbol.classes:
                return owner_symbol.classes[attr]
            if attr in owner_symbol.functions:
                return owner_symbol.functions[attr]
            if attr in owner_symbol.imports:
                return self.lookup(owner_symbol.imports[attr], seen)
        return None

    def canonical(self, qualified: str) -> str:
        """Canonical qualname after chasing re-exports (for prefix tests)."""
        symbol = self.lookup(qualified)
        if isinstance(symbol, (FunctionInfo, ClassInfo)):
            return symbol.qualname
        if isinstance(symbol, ModuleInfo):
            return symbol.name
        return qualified

    def method_of(self, info: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup with a depth-first walk of project-local bases."""
        if name in info.methods:
            return info.methods[name]
        for base_name in info.base_names:
            resolved = self.resolve(info.module, base_name)
            if resolved is None:
                continue
            base = self.lookup(resolved)
            if isinstance(base, ClassInfo) and base is not info:
                found = self.method_of(base, name)
                if found is not None:
                    return found
        return None

    def class_of_method(self, function: FunctionInfo) -> Optional[ClassInfo]:
        if function.class_name is None:
            return None
        return function.module.classes.get(function.class_name)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every analyzable body, in deterministic qualname order."""
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


def build_project(
    parsed: Sequence[Tuple[Union[str, Path], ast.Module]]
) -> Project:
    """Assemble a :class:`Project` from ``(path, tree)`` pairs."""
    project = Project()
    for path, tree in parsed:
        project.add_module(path, tree)
    return project
