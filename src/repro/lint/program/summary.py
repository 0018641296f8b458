"""Per-module summaries: the facts the whole-program analyses consume.

A :class:`ModuleSummary` is one module reduced to the structured facts
the cross-module rules query — functions with their call sites, raise
sites, attribute mutations and RPC sends (by method name); classes with
their bases and attribute types; the import table; dispatch-dict
entries; string-tuple constants (method tuples); and suppression
comments. Summaries are plain data (JSON-serializable,
see :meth:`ModuleSummary.to_dict`) so they can be cached by content
hash under ``.lint_cache/`` and a ``lint --changed`` run only
re-parses the files that actually changed.

Extraction is deliberately syntactic and per-module: no imports are
executed and nothing outside the file is consulted. Cross-module
resolution (annotations to classes, names to definitions) happens in
:mod:`repro.lint.program.callgraph` over the whole summary set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any

#: Bump when the summary schema or extraction logic changes: cached
#: summaries carry the version and are discarded on mismatch.
SUMMARY_VERSION = 3

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

#: Callable names that perform an RPC when called with a constant method
#: string: ``RemoteCall(dest, "m", payload)`` (flow yields),
#: ``rpc(dest, "m", payload)`` / ``network.rpc(src, dest, "m", payload)``
#: (sim + nested handler calls) and ``transport.call(dest, "m", payload)``
#: (daemon client).
RPC_CALLABLES: frozenset[str] = frozenset({"RemoteCall", "rpc", "call"})

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
class RpcSend:
    """One client-side RPC with a constant method name."""

    method: str
    lineno: int


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
    rpc_sends: list[RpcSend] = field(default_factory=list)
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
    """One module reduced to analysis facts (JSON-serializable)."""

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

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON rendering for the summary cache."""
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "imports": dict(sorted(self.imports.items())),
            "str_tuples": {k: list(v) for k, v in sorted(self.str_tuples.items())},
            "ignores": {str(k): list(v) for k, v in sorted(self.ignores.items())},
            "dispatch": [
                {
                    "method": d.method,
                    "target": d.target,
                    "lineno": d.lineno,
                    "scope": d.scope,
                }
                for d in self.dispatch
            ],
            "classes": {
                name: {
                    "name": c.name,
                    "lineno": c.lineno,
                    "bases": list(c.bases),
                    "methods": list(c.methods),
                    "attr_types": dict(sorted(c.attr_types.items())),
                }
                for name, c in sorted(self.classes.items())
            },
            "functions": {
                name: _function_to_dict(f)
                for name, f in sorted(self.functions.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        Raises:
            ValueError: the payload was written by another summary
                version.
        """
        if data.get("version") != SUMMARY_VERSION:
            raise ValueError(
                f"summary version {data.get('version')!r} != {SUMMARY_VERSION}"
            )
        summary = cls(module=str(data["module"]), path=str(data["path"]))
        summary.imports = {str(k): str(v) for k, v in data.get("imports", {}).items()}
        summary.str_tuples = {
            str(k): tuple(str(x) for x in v)
            for k, v in data.get("str_tuples", {}).items()
        }
        summary.ignores = {
            int(k): tuple(str(x) for x in v)
            for k, v in data.get("ignores", {}).items()
        }
        summary.dispatch = [
            DispatchEntry(
                method=str(d["method"]),
                target=str(d["target"]),
                lineno=int(d["lineno"]),
                scope=str(d.get("scope", "")),
            )
            for d in data.get("dispatch", [])
        ]
        for name, c in data.get("classes", {}).items():
            summary.classes[str(name)] = ClassSummary(
                name=str(c["name"]),
                lineno=int(c["lineno"]),
                bases=tuple(str(b) for b in c.get("bases", [])),
                methods=tuple(str(m) for m in c.get("methods", [])),
                attr_types={str(a): str(t) for a, t in c.get("attr_types", {}).items()},
            )
        for name, f in data.get("functions", {}).items():
            summary.functions[str(name)] = _function_from_dict(f)
        return summary


def _function_to_dict(f: FunctionSummary) -> dict[str, Any]:
    return {
        "qualname": f.qualname,
        "lineno": f.lineno,
        "is_async": f.is_async,
        "class_name": f.class_name,
        "params": list(f.params),
        "param_annotations": dict(sorted(f.param_annotations.items())),
        "has_journal_scope": f.has_journal_scope,
        "calls": [
            {
                "target": c.target,
                "lineno": c.lineno,
                "guards": list(c.guards),
                "in_journal_scope": c.in_journal_scope,
                "dynamic": c.dynamic,
                "partial_of": c.partial_of,
            }
            for c in f.calls
        ],
        "raises": [
            {"exception": r.exception, "lineno": r.lineno, "guards": list(r.guards)}
            for r in f.raises
        ],
        "mutations": [
            {
                "target": m.target,
                "kind": m.kind,
                "lineno": m.lineno,
                "in_journal_scope": m.in_journal_scope,
            }
            for m in f.mutations
        ],
        "rpc_sends": [{"method": s.method, "lineno": s.lineno} for s in f.rpc_sends],
    }


def _function_from_dict(data: dict[str, Any]) -> FunctionSummary:
    f = FunctionSummary(
        qualname=str(data["qualname"]),
        lineno=int(data["lineno"]),
        is_async=bool(data.get("is_async", False)),
        class_name=data.get("class_name"),
        params=tuple(str(p) for p in data.get("params", [])),
        param_annotations={
            str(k): str(v) for k, v in data.get("param_annotations", {}).items()
        },
        has_journal_scope=bool(data.get("has_journal_scope", False)),
    )
    f.calls = [
        CallSite(
            target=str(c["target"]),
            lineno=int(c["lineno"]),
            guards=tuple(str(g) for g in c.get("guards", [])),
            in_journal_scope=bool(c.get("in_journal_scope", False)),
            dynamic=bool(c.get("dynamic", False)),
            partial_of=c.get("partial_of"),
        )
        for c in data.get("calls", [])
    ]
    f.raises = [
        RaiseSite(
            exception=str(r["exception"]),
            lineno=int(r["lineno"]),
            guards=tuple(str(g) for g in r.get("guards", [])),
        )
        for r in data.get("raises", [])
    ]
    f.mutations = [
        MutationSite(
            target=str(m["target"]),
            kind=str(m["kind"]),
            lineno=int(m["lineno"]),
            in_journal_scope=bool(m.get("in_journal_scope", False)),
        )
        for m in data.get("mutations", [])
    ]
    f.rpc_sends = [
        RpcSend(method=str(s["method"]), lineno=int(s["lineno"]))
        for s in data.get("rpc_sends", [])
    ]
    return f


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
