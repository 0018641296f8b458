"""Whole-program rules: base class, registry and shared context.

Program rules mirror the per-file rule protocol (:mod:`repro.lint.rules`)
but check facts that span modules: each rule's :meth:`ProgramRule.check`
receives one :class:`ProgramContext` holding the module summaries, the
symbol index and the resolved call graph, and yields
:class:`~repro.lint.findings.Finding` records. The runner applies path
scoping, inline ``# lint: ignore[rule]`` suppression and snippet
capture — rules only detect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from repro.lint.config import LintConfig, ProgramConfig
from repro.lint.findings import Finding, Severity

from ..callgraph import CallGraph, ProgramIndex, ResolvedCall


@dataclass
class ProgramContext:
    """Everything a program rule may query, plus finding helpers."""

    config: LintConfig
    index: ProgramIndex
    graph: CallGraph
    _callers: dict[str, tuple[tuple[str, ResolvedCall], ...]] | None = field(
        default=None, repr=False
    )

    @property
    def program(self) -> ProgramConfig:
        """The program-analysis section of the lint configuration."""
        return self.config.program

    def callers(self) -> dict[str, tuple[tuple[str, ResolvedCall], ...]]:
        """Reverse adjacency (computed once, shared across rules)."""
        if self._callers is None:
            self._callers = self.graph.callers()
        return self._callers

    def rule_applies(self, rule_id: str, module: str) -> bool:
        """Path scoping for facts *collected* from a module."""
        path = self.index.path_of(module)
        return self.config.rule_config(rule_id).applies_to(path)

    def in_modules(self, module: str, roots: tuple[str, ...]) -> bool:
        """Whether ``module`` is one of ``roots`` or nested under one."""
        return any(module == root or module.startswith(f"{root}.") for root in roots)

    def str_constant_tuple(self, const: tuple[str, str]) -> tuple[str, ...]:
        """A ``(module, NAME)`` string-tuple constant, or () if absent."""
        module, name = const
        summary = self.index.modules.get(module)
        if summary is None:
            return ()
        return summary.str_tuples.get(name, ())

    def finding(
        self,
        rule: str,
        module: str,
        lineno: int,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a finding anchored at ``module``:``lineno``, column 1."""
        return Finding(
            path=self.index.path_of(module),
            line=max(lineno, 1),
            col=1,
            rule=rule,
            message=message,
            severity=severity,
        )


class ProgramRule:
    """Base class for whole-program analyses."""

    id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        """Yield findings over the whole-program context."""
        raise NotImplementedError


_REGISTRY: dict[str, type[ProgramRule]] = {}


def register(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator adding a program rule to the global registry."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} must define a rule id")
    _REGISTRY[cls.id] = cls
    return cls


def all_program_rules() -> dict[str, ProgramRule]:
    """Fresh instances of every registered program rule, by id."""
    # Registration happens at import time, mirroring the per-file rules.
    from . import async_safety, exception_wire, journal_first  # noqa: F401

    return {rule_id: _REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)}
