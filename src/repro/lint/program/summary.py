"""Per-module summaries: the facts the whole-program analyses consume.

A :class:`ModuleSummary` is one module reduced to the structured facts
the cross-module rules query — functions with their call sites, raise
sites and attribute mutations; classes with their bases and attribute
types; the import table; dispatch-dict entries; string-tuple constants
(method tuples); and suppression comments. Summaries are plain data,
rebuilt from the source on every run.

Extraction is deliberately syntactic and per-module: no imports are
executed and nothing outside the file is consulted. Cross-module
resolution (annotations to classes, names to definitions) happens in
:mod:`repro.lint.program.callgraph` over the whole summary set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: ``with`` context-manager call names that open a journal/durability
#: scope. ``_journal_scope`` is the broker's hook-or-nullcontext helper;
#: ``operation`` is ``Store.operation`` (and the journal hooks' own
#: re-entrant scopes).
JOURNAL_SCOPE_CALLS: frozenset[str] = frozenset({"_journal_scope", "operation"})

#: Method names whose call on an attribute mutates the container.
MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Za-z0-9*,_-]+)\]")


# ----------------------------------------------------------------------
# Summary records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is the dotted source text of the callee when it is a
    plain name/attribute chain (``self.journal.record_ticket``,
    ``time.sleep``, ``flatten``); resolution to a definition happens in
    the call graph. ``guards`` are the exception names of enclosing
    ``try`` blocks *in the same function* whose handlers would catch an
    exception raised by this call. ``dynamic`` marks calls through a
    parameter- or table-valued callable (``handler(payload)``) that the
    call graph over-approximates with edges to every dispatch-registered
    handler.
    """

    target: str
    lineno: int
    guards: tuple[str, ...] = ()
    in_journal_scope: bool = False
    dynamic: bool = False
    partial_of: str | None = None


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise SomeError(...)`` with its same-function guards."""

    exception: str
    lineno: int
    guards: tuple[str, ...] = ()


@dataclass(frozen=True)
class MutationSite:
    """One container mutation through a ``self.<field>`` chain."""

    target: str
    kind: str
    lineno: int
    in_journal_scope: bool = False


@dataclass(frozen=True)
class DispatchEntry:
    """One ``{"method": handler}`` entry of a dispatch-dict literal."""

    method: str
    target: str
    lineno: int
    scope: str = ""


@dataclass
class FunctionSummary:
    """Everything the analyses need to know about one function."""

    qualname: str
    lineno: int
    is_async: bool = False
    class_name: str | None = None
    params: tuple[str, ...] = ()
    #: own parameter annotations plus those inherited from enclosing
    #: functions (dispatch builders close over ``broker: Broker``).
    param_annotations: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)
    mutations: list[MutationSite] = field(default_factory=list)
    #: whether any ``with`` in the body opens a journal scope.
    has_journal_scope: bool = False


@dataclass
class ClassSummary:
    """One class: bases, methods, and best-effort attribute types."""

    name: str
    lineno: int
    bases: tuple[str, ...] = ()
    methods: tuple[str, ...] = ()
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """One module reduced to analysis facts."""

    module: str
    path: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: local name -> dotted target (module aliases and from-imports).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level tuples/lists/frozensets of string constants.
    str_tuples: dict[str, tuple[str, ...]] = field(default_factory=dict)
    dispatch: list[DispatchEntry] = field(default_factory=list)
    #: line number -> suppressed rule ids (``*`` suppresses all).
    ignores: dict[int, tuple[str, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.expr) -> str | None:
    """The dotted text of a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
