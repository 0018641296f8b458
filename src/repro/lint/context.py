"""Per-file analysis context shared by every rule visitor.

Parsing, parent links, import resolution and suppression-comment
scanning happen once per file here; rules stay small visitors that ask
questions like "is this call ``random.randrange``?" without re-deriving
module aliases themselves.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity

#: ``# lint: ignore[rule-id]`` (or ``ignore[*]``) suppresses findings on
#: that physical line: the one way to accept a finding, for deliberate,
#: commented exceptions.
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9*,_-]+)\]")


@dataclass
class FileContext:
    """One parsed module plus the lookup tables rules need."""

    path: str
    source: str
    tree: ast.Module
    config: LintConfig
    lines: list[str] = field(default_factory=list)
    #: local alias -> imported module path ("import random as rnd" maps
    #: "rnd" -> "random"; "import os.path" maps "os" -> "os").
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" for from-imports.
    from_imports: dict[str, str] = field(default_factory=dict)
    #: line number -> set of suppressed rule ids ("*" suppresses all).
    ignores: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str, config: LintConfig) -> "FileContext":
        """Parse ``source`` and index imports and suppression comments."""
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path,
            source=source,
            tree=tree,
            config=config,
            lines=source.splitlines(),
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    ctx.module_aliases[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    ctx.from_imports[local] = f"{node.module}.{alias.name}"
        for number, text in enumerate(ctx.lines, start=1):
            match = _IGNORE_RE.search(text)
            if match:
                ctx.ignores[number] = {
                    rule.strip() for rule in match.group(1).split(",")
                }
        return ctx

    # ------------------------------------------------------------------
    # Node predicates
    # ------------------------------------------------------------------
    def call_target(self, node: ast.Call) -> tuple[str, str] | None:
        """Resolve a call to ``(module, function)`` when statically known.

        ``random.randrange(...)`` resolves to ``("random", "randrange")``
        even through ``import random as rnd``; a bare ``urandom(...)``
        resolves to ``("os", "urandom")`` when from-imported. Calls on
        instances (``rng.randrange``) resolve the *attribute chain head*,
        so they only match when the head is a known module alias.
        """
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self.module_aliases.get(func.value.id)
            if module is not None:
                return module, func.attr
            # ``from datetime import datetime; datetime.now()``: the head
            # is a from-imported class acting as the "module".
            imported = self.from_imports.get(func.value.id)
            if imported is not None:
                return imported.rpartition(".")[2], func.attr
            return None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
        ):
            module = self.module_aliases.get(func.value.value.id)
            if module is not None:
                return func.value.attr, func.attr
            return None
        if isinstance(func, ast.Name):
            imported = self.from_imports.get(func.id)
            if imported is not None:
                module, _, attr = imported.rpartition(".")
                return module, attr
        return None

    def attribute_call_name(self, node: ast.Call) -> str | None:
        """The method name for ``<expr>.name(...)`` calls, else None."""
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def terminal_name(self, node: ast.expr) -> str | None:
        """The identifier a Name/Attribute expression ultimately names."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def snippet(self, line: int) -> str:
        """The stripped source text of a 1-indexed line."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``# lint: ignore[...]`` covers this rule on this line."""
        suppressed = self.ignores.get(line)
        return bool(suppressed) and bool(suppressed & {rule_id, "*"})

    def finding(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        severity: Severity,
    ) -> Finding:
        """Build a Finding anchored at ``node``."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col + 1,
            rule=rule_id,
            message=message,
            severity=severity,
            snippet=self.snippet(line),
        )
