"""Whole-program analysis driver: files -> summaries -> graph -> findings.

The runner owns everything the individual rules were freed from doing:
file discovery (shared with the per-file engine), dotted-module naming,
summary extraction, index and call-graph construction, rule selection,
anchor-side path scoping, inline ``# lint: ignore[rule]`` suppression,
snippet capture (so fingerprints survive line-number drift exactly like
per-file findings), and deterministic ordering of the result.

Module names are derived from repo-relative paths: ``src/`` is stripped
(the layout prefix, not a package), ``/`` becomes ``.``, and a package
``__init__.py`` names the package itself. Scanning a fixture tree with
``root=<fixture dir>`` therefore yields short module names
(``wirebad.registry``) that a test's ProgramConfig can target directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.lint.config import LintConfig, default_config
from repro.lint.engine import _relative_posix, iter_python_files
from repro.lint.findings import Finding, Severity

from .analyses import ProgramContext, ProgramRule, all_program_rules
from .callgraph import CallGraph, ProgramIndex
from .extract import summarize_source
from .summary import ModuleSummary


def module_name(relpath: str) -> str:
    """Dotted module name for a repo-relative posix ``.py`` path."""
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class ProgramRun:
    """Result of one whole-program pass."""

    findings: list[Finding] = field(default_factory=list)
    checked_files: int = 0


def select_program_rules(only: list[str] | None = None) -> dict[str, ProgramRule]:
    """Program rules filtered to ``only`` ids; KeyError on unknown ids."""
    rules = all_program_rules()
    if only is None:
        return rules
    for rule_id in only:
        if rule_id not in rules:
            raise KeyError(rule_id)
    return {rule_id: rules[rule_id] for rule_id in sorted(only)}


def run_program(
    paths: list[str | Path],
    config: LintConfig | None = None,
    only: list[str] | None = None,
    root: str | Path | None = None,
) -> ProgramRun:
    """Run the whole-program analyses over every ``.py`` under ``paths``."""
    config = config or default_config()
    base = Path(root) if root is not None else Path.cwd()
    rules = select_program_rules(only)

    run = ProgramRun()
    summaries: list[ModuleSummary] = []
    sources: dict[str, list[str]] = {}
    for path in iter_python_files(paths):
        relpath = _relative_posix(path, base)
        source = path.read_text(encoding="utf-8")
        sources[relpath] = source.splitlines()
        run.checked_files += 1
        try:
            summary = summarize_source(source, module_name(relpath), relpath)
        except SyntaxError as error:
            run.findings.append(
                Finding(
                    path=relpath,
                    line=error.lineno or 0,
                    col=error.offset or 0,
                    rule="parse-error",
                    message=f"file does not parse: {error.msg}",
                    severity=Severity.ERROR,
                )
            )
            continue
        summaries.append(summary)

    index = ProgramIndex(summaries)
    graph = CallGraph(index)
    context = ProgramContext(config=config, index=index, graph=graph)
    ignores = {summary.path: summary.ignores for summary in summaries}

    collected: list[Finding] = list(run.findings)
    for rule_id in sorted(rules):
        for finding in rules[rule_id].check(context):
            if not config.rule_config(rule_id).applies_to(finding.path):
                continue
            suppressed = ignores.get(finding.path, {}).get(finding.line, ())
            if rule_id in suppressed or "*" in suppressed:
                continue
            collected.append(_with_snippet(finding, sources))
    # Finding equality ignores the message (fingerprints are meant to
    # survive rewording), so dedup on the full identity here: distinct
    # diagnostics may legitimately anchor to the same line (two escaping
    # exceptions of one handler, a stray key that is also abbreviated).
    unique: dict[tuple[str, int, int, str, str], Finding] = {}
    for finding in collected:
        key = (finding.path, finding.line, finding.col, finding.rule, finding.message)
        unique.setdefault(key, finding)
    run.findings = [unique[key] for key in sorted(unique)]
    return run


def _with_snippet(finding: Finding, sources: dict[str, list[str]]) -> Finding:
    """Attach the anchored source line so fingerprints survive edits."""
    lines = sources.get(finding.path)
    if lines and 1 <= finding.line <= len(lines):
        return replace(finding, snippet=lines[finding.line - 1].strip())
    return finding
