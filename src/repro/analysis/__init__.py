"""meghlint: project-specific static analysis for the Megh reproduction.

Megh's headline result — a convergent learn-as-you-go scheduler — is only
reproducible if every run is bit-deterministic under a seed and the
Sherman–Morrison incremental inverse stays numerically honest.  This
package provides an AST-based lint framework that enforces exactly those
project invariants:

* a rule registry (:mod:`repro.analysis.rules`) with the MEGH rule set
  (unseeded randomness — every RNG factory, however imported —
  wall-clock reads, float equality, mutable defaults, missing seed
  plumbing, swallowed exceptions);
* a whole-program flow pass (:mod:`repro.analysis.flow`, "meghflow")
  checking dirty-flag invalidation across module boundaries (MEGH011);
* an ndarray abstract interpreter (:mod:`repro.analysis.shape`,
  "meghshape") checking dtype/axis discipline, broadcasts, dtype drift,
  the C kernel ABI, shape contracts and in-place aliasing in the hot
  packages (MEGH012, MEGH019–MEGH023);
* an engine (:mod:`repro.analysis.engine`) that walks files, parses each
  module once for every pass, applies the rules, honours
  ``# meghlint: ignore[RULE] -- reason`` suppressions — the one way to
  accept a finding — and reports directives that never fire;
* text, JSON and SARIF reporters (:mod:`repro.analysis.reporting`);
* a CLI (:mod:`repro.analysis.cli`), reachable as ``repro lint`` /
  ``megh-repro lint`` or ``python -m repro.analysis``.

The runtime counterpart — contracts that audit the live LSPI state —
lives in :mod:`repro.core.contracts`.
"""

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.engine import (
    UNUSED_SUPPRESSION_RULE,
    LintConfig,
    LintResult,
    ParsedModule,
    lint_paths,
    lint_source,
    parse_module,
)
from repro.analysis.flow import FLOW_RULES, run_flow
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULE_REGISTRY, Rule, all_rule_ids

__all__ = [
    "Diagnostic",
    "Severity",
    "LintConfig",
    "LintResult",
    "ParsedModule",
    "parse_module",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "RULE_REGISTRY",
    "FLOW_RULES",
    "run_flow",
    "Rule",
    "all_rule_ids",
    "UNUSED_SUPPRESSION_RULE",
]
