"""repro.lint — AST-based protocol-invariant static analysis.

The type system cannot see the discipline the paper's guarantees rest
on: representation secrets ``(x1,x2)/(y1,y2)`` must never leak outside
payment transcripts (anonymity), exponent arithmetic must be reduced
mod ``q`` (Schnorr soundness), digests must be compared in constant
time, and every replayable path must draw randomness and time through
the seeded sim abstractions that keep chaos/bench outputs byte
identical. This package checks those invariants at commit time.

The pieces:

* :mod:`repro.lint.engine` — walks files, parses each module once and
  runs every enabled rule's visitor over the tree;
* :mod:`repro.lint.rules` — the rule registry and the six shipped
  protocol rules (secret-flow, rng-discipline, mod-arith, ct-compare,
  determinism, broad-except);
* :mod:`repro.lint.config` — per-rule path scoping and the protocol
  lexicons (secret names, digest names, sim-clock allowances);
* :mod:`repro.lint.program` — the second tier: whole-program analyses
  (module summaries, interprocedural call graph) checking journal-first
  durability, async-safety and exception-wire totality across module
  boundaries (what a message carries is declared in
  ``net/registry.WIRE_SCHEMA`` and checked at run time, not here);
* :mod:`repro.lint.report` — console and JSON renderings plus the
  CI exit-code contract (0 clean, 1 findings, 2 usage error).

Run it as ``python -m repro lint src/`` for the per-file tier and
``python -m repro lint --program src/repro`` for the program tier. Either
fails on any finding; a deliberate exception is an inline
``# lint: ignore[rule]`` on the offending line, with a comment saying why.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, ProgramConfig, RuleConfig, default_config
from repro.lint.engine import LintEngine, lint_paths
from repro.lint.findings import Finding, Severity
from repro.lint.program import ProgramRun, all_program_rules, run_program
from repro.lint.report import render_console, render_json
from repro.lint.rules import Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "ProgramConfig",
    "ProgramRun",
    "Rule",
    "RuleConfig",
    "Severity",
    "all_program_rules",
    "all_rules",
    "default_config",
    "get_rule",
    "lint_paths",
    "render_console",
    "render_json",
    "run_program",
]
