"""The lint engine: file discovery, parsing, rule dispatch.

One :class:`~repro.lint.context.FileContext` is built per file (a
single parse); every rule whose path scope covers the file then walks
the shared tree. Files that fail to parse produce a synthetic
``parse-error`` finding rather than crashing the run, so the linter can
gate CI without being taken down by one broken module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.config import LintConfig, default_config
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.rules import Rule, all_rules

#: Directories never worth descending into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            if path not in seen:
                seen.add(path)
                yield path
        elif path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in file.parts):
                    continue
                if file not in seen:
                    seen.add(file)
                    yield file


def _relative_posix(path: Path, root: Path | None) -> str:
    """The repo-relative posix string rules and fingerprints key on."""
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintEngine:
    """Run a set of rules over a set of files."""

    config: LintConfig = field(default_factory=default_config)
    rules: dict[str, Rule] = field(default_factory=all_rules)
    root: Path | None = None

    def select_rules(self, only: Iterable[str] | None = None) -> dict[str, Rule]:
        """The rule subset to run (``--rule`` repeats narrow it).

        Raises:
            KeyError: a requested rule id is not registered.
        """
        if only is None:
            return dict(self.rules)
        selected: dict[str, Rule] = {}
        for rule_id in only:
            if rule_id not in self.rules:
                raise KeyError(rule_id)
            selected[rule_id] = self.rules[rule_id]
        return selected

    def lint_file(
        self, path: Path, only: Iterable[str] | None = None
    ) -> list[Finding]:
        """Lint one file; a parse failure is itself a finding."""
        relpath = _relative_posix(path, self.root)
        source = path.read_text(encoding="utf-8")
        try:
            ctx = FileContext.parse(relpath, source, self.config)
        except SyntaxError as error:
            return [
                Finding(
                    path=relpath,
                    line=error.lineno or 0,
                    col=(error.offset or 0),
                    rule="parse-error",
                    message=f"file does not parse: {error.msg}",
                    severity=Severity.ERROR,
                )
            ]
        findings: list[Finding] = []
        for rule_id, rule in self.select_rules(only).items():
            if not self.config.rule_config(rule_id).applies_to(relpath):
                continue
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding.line, rule_id):
                    continue
                findings.append(finding)
        # Two checks of one rule can anchor at the same node (e.g. a
        # secret inside str() inside a log call); report each location
        # once per rule.
        return sorted(set(findings))

    def lint(
        self,
        paths: Iterable[str | Path],
        only: Iterable[str] | None = None,
    ) -> list[Finding]:
        """Lint files/directories; findings come back sorted by location."""
        findings: list[Finding] = []
        for file in iter_python_files(paths):
            findings.extend(self.lint_file(file, only))
        return sorted(findings)


def lint_paths(
    paths: Iterable[str | Path],
    config: LintConfig | None = None,
    only: Iterable[str] | None = None,
    root: str | Path | None = None,
) -> list[Finding]:
    """One-call convenience: lint with the default engine."""
    engine = LintEngine(
        config=config or default_config(),
        root=Path(root) if root is not None else None,
    )
    return engine.lint(paths, only)
