"""meghlint engine: file walking, parsing, suppression filtering.

Suppression syntax (checked on the diagnostic's own line)::

    x = 1.0
    if x == 1.0:  # meghlint: ignore[MEGH003] -- exact sentinel, set above
        ...

``ignore`` with no bracket suppresses every rule on that line;
``ignore[MEGH003,MEGH006]`` suppresses the listed rules.  A module whose
first lines contain ``# meghlint: skip-file`` is not linted at all
(used for test fixtures that intentionally violate rules).

Each module is parsed **once**: the same :class:`ParsedModule` (AST +
suppression table) feeds the per-file rules (MEGH001–MEGH009) and the
whole-program flow and shape passes (MEGH011, see
:mod:`repro.analysis.flow`; MEGH012 and MEGH019–MEGH023, see
:mod:`repro.analysis.shape`), which :func:`lint_paths` runs over all
parsed modules together.  Suppression comments are found with
:mod:`tokenize` so suppression-like text inside docstrings and string
literals is never mistaken for a directive — and every real directive
tracks whether it actually fired, so stale ones can be reported
(``MEGH013``, enforced by ``repro lint --strict-suppressions``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.flow import FLOW_RULES, build_project, run_flow
from repro.analysis.rules import Rule, RuleContext, build_rules
from repro.analysis.shape import SHAPE_RULES, run_shape

_SUPPRESSION_PATTERN = re.compile(
    r"#\s*meghlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)
_SKIP_FILE_PATTERN = re.compile(r"#\s*meghlint:\s*skip-file")

#: How many leading lines may carry a skip-file marker.
_SKIP_FILE_WINDOW = 5

#: Engine-level check id for a suppression directive that never fired.
UNUSED_SUPPRESSION_RULE = "MEGH013"

#: Rule ids handled by the engine rather than the per-file registry.
_ENGINE_RULE_IDS = (
    frozenset(FLOW_RULES)
    | frozenset(SHAPE_RULES)
    | {UNUSED_SUPPRESSION_RULE}
)


@dataclass
class Suppression:
    """One ``# meghlint: ignore`` directive and whether it fired."""

    line: int
    #: Suppressed rule ids; ``None`` means every rule on the line.
    rules: Optional[Set[str]]
    used: int = 0


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every pass."""

    path: str
    source_lines: Tuple[str, ...]
    tree: Optional[ast.Module]
    skipped: bool
    suppressions: Dict[int, Suppression]
    parse_error: Optional[SyntaxError] = None


@dataclass(frozen=True)
class LintConfig:
    """Which rules run and over which files."""

    select: Optional[Sequence[str]] = None
    ignore: Optional[Sequence[str]] = None
    #: Directory names never descended into.
    excluded_dirs: Sequence[str] = (
        ".git",
        "__pycache__",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
    )

    def validate(self) -> None:
        """Raise ``ValueError`` on rule ids no pass recognizes."""
        known = set(self._registry_ids()) | _ENGINE_RULE_IDS
        requested = set(self.select or ()) | set(self.ignore or ())
        unknown = requested - known
        if unknown:
            raise ValueError(
                "unknown rule id(s): " + ", ".join(sorted(unknown))
            )

    def rules(self) -> List[Rule]:
        """Per-file rule instances (engine-level ids filtered out)."""
        self.validate()
        return build_rules(
            select=self._registry_only(self.select),
            ignore=self._registry_only(self.ignore),
        )

    def flow_rule_sets(
        self,
    ) -> Tuple[Optional[Set[str]], Optional[Set[str]]]:
        select = set(self.select) if self.select is not None else None
        ignore = set(self.ignore) if self.ignore is not None else None
        return select, ignore

    def whole_program_enabled(self) -> bool:
        """Whether any flow or shape rule survives select/ignore.

        The per-file entry points never run these rules: their facts
        only make sense over a whole project.
        """
        enabled = set(FLOW_RULES) | set(SHAPE_RULES)
        if self.select is not None:
            enabled &= set(self.select)
        if self.ignore is not None:
            enabled -= set(self.ignore)
        return bool(enabled)

    def unused_suppression_check_enabled(self) -> bool:
        if self.ignore is not None and UNUSED_SUPPRESSION_RULE in self.ignore:
            return False
        if self.select is not None:
            return UNUSED_SUPPRESSION_RULE in self.select
        return True

    @staticmethod
    def _registry_ids() -> Set[str]:
        from repro.analysis.rules import RULE_REGISTRY

        return set(RULE_REGISTRY)

    def _registry_only(
        self, ids: Optional[Sequence[str]]
    ) -> Optional[List[str]]:
        if ids is None:
            return None
        return [i for i in ids if i not in _ENGINE_RULE_IDS]


@dataclass
class LintResult:
    """Diagnostics plus bookkeeping for the reporters."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: ``MEGH013`` diagnostics for directives that never fired.  Kept
    #: out of ``diagnostics`` so they inform without failing the run;
    #: ``--strict-suppressions`` promotes them.
    unused_suppressions: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(
            1
            for d in self.diagnostics
            if d.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> int:
        return sum(
            1
            for d in self.diagnostics
            if d.severity is Severity.WARNING
        )

    @property
    def clean(self) -> bool:
        return not self.diagnostics


def _scan_suppressions(source: str) -> Dict[int, Suppression]:
    """Suppression table from real comment tokens only.

    Docstrings in this package quote the directive syntax verbatim, so
    a plain regex over source lines would both mis-suppress and later
    report phantom "unused" directives.  When tokenization fails (the
    file will separately get MEGH000), fall back to a line regex.
    """
    comments: List[Tuple[int, str]]
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (number, line)
            for number, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    table: Dict[int, Suppression] = {}
    for line_number, text in comments:
        match = _SUPPRESSION_PATTERN.search(text)
        if not match:
            continue
        listed = match.group("rules")
        if listed is None:
            table[line_number] = Suppression(line=line_number, rules=None)
        else:
            rule_ids = {
                part.strip().upper()
                for part in listed.split(",")
                if part.strip()
            }
            table[line_number] = Suppression(
                line=line_number, rules=rule_ids or None
            )
    return table


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Read one module into the shared parse-once representation."""
    source_lines = tuple(source.splitlines())
    for line in source_lines[:_SKIP_FILE_WINDOW]:
        if _SKIP_FILE_PATTERN.search(line):
            return ParsedModule(
                path=path,
                source_lines=source_lines,
                tree=None,
                skipped=True,
                suppressions={},
            )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return ParsedModule(
            path=path,
            source_lines=source_lines,
            tree=None,
            skipped=False,
            suppressions={},
            parse_error=error,
        )
    return ParsedModule(
        path=path,
        source_lines=source_lines,
        tree=tree,
        skipped=False,
        suppressions=_scan_suppressions(source),
    )


def _consume_suppression(
    module: ParsedModule, diagnostic: Diagnostic
) -> bool:
    """True (and count the use) when the module suppresses this line."""
    suppression = module.suppressions.get(diagnostic.line)
    if suppression is None:
        return False
    if suppression.rules is not None and (
        diagnostic.rule_id not in suppression.rules
    ):
        return False
    suppression.used += 1
    return True


def _apply_file_rules(
    module: ParsedModule, config: LintConfig, result: LintResult
) -> None:
    """Run the per-file rules over one already-parsed module."""
    result.files_checked += 1
    if module.skipped:
        return
    if module.parse_error is not None:
        error = module.parse_error
        result.diagnostics.append(
            Diagnostic(
                path=module.path,
                line=error.lineno or 1,
                column=(error.offset or 0) or 1,
                rule_id="MEGH000",
                severity=Severity.ERROR,
                message=f"file does not parse: {error.msg}",
            )
        )
        return
    assert module.tree is not None
    context = RuleContext(
        path=module.path, tree=module.tree, source_lines=module.source_lines
    )
    for rule in config.rules():
        for diagnostic in rule.check(context):
            if _consume_suppression(module, diagnostic):
                result.suppressed += 1
            else:
                result.diagnostics.append(diagnostic)


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    result: Optional[LintResult] = None,
) -> LintResult:
    """Lint one module's source text (per-file rules only)."""
    config = config or LintConfig()
    result = result if result is not None else LintResult()
    _apply_file_rules(parse_module(source, path), config, result)
    return result


def iter_python_files(
    paths: Iterable[Union[str, Path]],
    config: Optional[LintConfig] = None,
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    config = config or LintConfig()
    excluded = set(config.excluded_dirs)
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if excluded.intersection(candidate.parts):
                    continue
                found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return found


def _collect_unused_suppressions(
    modules: Sequence[ParsedModule], result: LintResult
) -> None:
    for module in modules:
        if module.skipped or module.parse_error is not None:
            continue
        for suppression in module.suppressions.values():
            if suppression.used:
                continue
            scope = (
                "all rules"
                if suppression.rules is None
                else ", ".join(sorted(suppression.rules))
            )
            result.unused_suppressions.append(
                Diagnostic(
                    path=module.path,
                    line=suppression.line,
                    column=1,
                    rule_id=UNUSED_SUPPRESSION_RULE,
                    severity=Severity.WARNING,
                    message=(
                        f"suppression for {scope} never fired; delete it "
                        "or fix the rule id (stale suppressions hide "
                        "future regressions)"
                    ),
                )
            )


def lint_paths(
    paths: Iterable[Union[str, Path]],
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Lint every ``.py`` file under the given files/directories.

    This is the whole-program entry point: after the per-file rules it
    runs the flow and meghshape passes over the same ASTs — sharing one
    project model, built only when one of their rules is enabled —
    applies line suppressions to their findings too, and finally
    reports directives that never fired.
    """
    config = config or LintConfig()
    config.validate()
    result = LintResult()
    modules: List[ParsedModule] = []
    for file_path in iter_python_files(paths, config):
        source = file_path.read_text(encoding="utf-8")
        module = parse_module(source, path=str(file_path))
        modules.append(module)
        _apply_file_rules(module, config, result)
    if config.whole_program_enabled():
        by_path = {module.path: module for module in modules}
        flow_input = [
            (module.path, module.tree)
            for module in modules
            if module.tree is not None and not module.skipped
        ]
        select, ignore = config.flow_rule_sets()
        # Build the project model once; meghflow and meghshape both
        # consume the same instance (parse-once extends to build-once).
        project = build_project(flow_input)
        whole_program = run_flow(
            flow_input, select, ignore, project=project
        ) + run_shape(flow_input, select, ignore, project=project)
        for diagnostic in whole_program:
            module_for = by_path.get(str(diagnostic.path))
            if module_for is not None and _consume_suppression(
                module_for, diagnostic
            ):
                result.suppressed += 1
            else:
                result.diagnostics.append(diagnostic)
    if config.unused_suppression_check_enabled():
        _collect_unused_suppressions(modules, result)
    result.diagnostics.sort(key=sort_key)
    result.unused_suppressions.sort(key=sort_key)
    return result
