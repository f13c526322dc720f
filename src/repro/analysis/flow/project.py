"""Project model for the whole-program passes: modules and symbols.

meghlint's per-file rules (MEGH001–009) see one ``ast.Module`` at a
time; MEGH011 follows a class's methods and the meghshape rules
(MEGH012, MEGH019–023) need each function's package.  This module
builds the shared substrate: a :class:`Project` holding every parsed
module exactly once (the engine hands over the ASTs it already parsed —
nothing is re-read or re-parsed) and a symbol table of top-level
functions, classes, and methods addressable by fully qualified dotted
name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    """A top-level class and its methods."""

    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One parsed module: its dotted name and path."""

    name: str
    path: str


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


class Project:
    """Whole-program symbol table over a set of already-parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
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
        module = ModuleInfo(name=name, path=path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{name}.{node.name}", module=module, node=node
                )
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
        body = FunctionInfo(
            qualname=f"{name}.{MODULE_BODY}", module=module, node=tree
        )
        self.functions[body.qualname] = body
        self.modules[name] = module
        return module

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(qualname=qualname, module=module, node=node)
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
        self.classes[qualname] = info

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
