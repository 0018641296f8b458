"""Finding and severity types shared by the engine, rules and reports."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is; errors gate CI, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so reports read top to bottom
    per file. The :meth:`fingerprint` deliberately excludes the line
    number: a finding keeps its identity across unrelated edits that
    only shift code up or down.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    severity: Severity = field(compare=False, default=Severity.ERROR)
    snippet: str = field(compare=False, default="")

    def fingerprint(self) -> str:
        """Content-addressed identity, reported in the JSON payload."""
        material = "\x1f".join((self.rule, self.path, self.snippet))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of a report line."""
        return f"{self.path}:{self.line}:{self.col}"
