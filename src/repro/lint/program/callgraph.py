"""Cross-module name resolution and the interprocedural call graph.

:class:`ProgramIndex` joins the per-module summaries into one symbol
table: dotted names resolve through import aliases and package
re-exports to function/class definitions, ``self``/parameter attribute
chains resolve through recorded annotations, and dispatch-dict entries
resolve to the handler functions they register. :class:`CallGraph`
materializes one resolved adjacency per call site so the analyses can
run reachability fixpoints without re-resolving.

Resolution is best-effort and *deliberately* under-approximate: a call
whose target cannot be resolved contributes no edge (each analysis
documents how it compensates — e.g. async-safety treats the store's
synchronous I/O methods as primitive blocking operations instead of
chasing them through untyped shard lists). The one over-approximation
is dynamic dispatch: a call through a parameter- or table-valued
callable gets edges to *every* dispatch-registered handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .summary import CallSite, ClassSummary, FunctionSummary, ModuleSummary

_MAX_RESOLVE_DEPTH = 16


def protocol_methods(index: "ProgramIndex") -> frozenset[str]:
    """Method names from ``*_METHODS`` constants in wire-active modules.

    Only modules that actually serve the wire protocol contribute: they
    register a dispatch table whose entries resolve to real handler
    functions. A ``*_METHODS``-named constant elsewhere
    (``MUTATING_METHODS`` in this very package) is vocabulary of some
    other domain, not the RPC universe — and dict-shaped serialization
    literals (``{"path": self.path}``) must not make a module look
    wire-active, which is why raw dispatch entries are not enough.
    """
    methods: set[str] = set()
    for summary in index.summaries():
        if not any(
            fid is not None and fid in index.functions
            for fid in (
                index._resolve_dispatch_target(summary, e.target, e.scope)
                for e in summary.dispatch
            )
        ):
            continue
        for name, values in summary.str_tuples.items():
            if name.endswith("_METHODS"):
                methods.update(values)
    return frozenset(methods)


@dataclass(frozen=True)
class ResolvedCall:
    """One call site with its alias-expanded text and resolved callees."""

    site: CallSite
    #: the call target with its leading segment expanded through the
    #: module's import table (``time.sleep`` stays ``time.sleep``;
    #: ``fsync`` from ``from os import fsync`` becomes ``os.fsync``).
    expanded: str
    #: global function ids this site can invoke (sorted, possibly empty).
    callees: tuple[str, ...]


class ProgramIndex:
    """A queryable symbol table over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        #: global function id (``module.qualname``) -> summary
        self.functions: dict[str, FunctionSummary] = {}
        #: global class id (``module.ClassName``) -> summary
        self.classes: dict[str, ClassSummary] = {}
        #: function id -> module dotted name
        self.function_module: dict[str, str] = {}
        self.class_module: dict[str, str] = {}
        for summary in sorted(summaries, key=lambda s: s.module):
            self.modules[summary.module] = summary
            for qualname, function in summary.functions.items():
                fid = f"{summary.module}.{qualname}"
                self.functions[fid] = function
                self.function_module[fid] = summary.module
            for name, klass in summary.classes.items():
                cid = f"{summary.module}.{name}"
                self.classes[cid] = klass
                self.class_module[cid] = summary.module
        #: simple class name -> sorted global ids (for exception lookup)
        self.classes_by_name: dict[str, tuple[str, ...]] = {}
        by_name: dict[str, list[str]] = {}
        for cid in self.classes:
            by_name.setdefault(cid.rpartition(".")[2], []).append(cid)
        for name, ids in by_name.items():
            self.classes_by_name[name] = tuple(sorted(ids))

    # -- module/file helpers ------------------------------------------
    def path_of(self, module: str) -> str:
        """Repo-relative path of ``module`` (``<unknown>`` if unindexed)."""
        summary = self.modules.get(module)
        return summary.path if summary is not None else "<unknown>"

    def summaries(self) -> Iterator[ModuleSummary]:
        """Module summaries in deterministic (sorted-module) order."""
        for name in sorted(self.modules):
            yield self.modules[name]

    # -- dotted-name resolution ---------------------------------------
    def expand_target(self, module: str, target: str) -> str:
        """Expand the leading segment of ``target`` via imports."""
        summary = self.modules.get(module)
        if summary is None:
            return target
        head, dot, rest = target.partition(".")
        alias = summary.imports.get(head)
        if alias is None:
            return target
        return f"{alias}{dot}{rest}" if dot else alias

    def resolve_global(self, dotted: str, depth: int = 0) -> str | None:
        """Resolve a fully-dotted path to a function/class global id."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        # Longest module prefix wins so that symbol paths inside the
        # module resolve relative to the right summary.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            rest = parts[cut:]
            if not rest:
                return None  # a bare module is not a callable definition
            return self._resolve_in_module(module, rest, depth)
        return None

    def _resolve_in_module(
        self, module: str, parts: list[str], depth: int
    ) -> str | None:
        summary = self.modules[module]
        head = parts[0]
        if len(parts) == 1:
            if head in summary.functions:
                return f"{module}.{head}"
            if head in summary.classes:
                return f"{module}.{head}"
            alias = summary.imports.get(head)
            if alias is not None:
                return self.resolve_global(alias, depth + 1)
            return None
        # Class.method (or alias.symbol...) inside this module.
        if head in summary.classes:
            if len(parts) == 2:
                return self.method_on_class(f"{module}.{head}", parts[1])
            return None
        alias = summary.imports.get(head)
        if alias is not None:
            return self.resolve_global(".".join([alias, *parts[1:]]), depth + 1)
        # Nested function path: outer.inner(.inner2)
        qualname = ".".join(parts)
        if qualname in summary.functions:
            return f"{module}.{qualname}"
        return None

    def resolve_symbol(self, module: str, dotted: str) -> str | None:
        """Resolve ``dotted`` as written inside ``module``."""
        if module in self.modules:
            parts = dotted.split(".")
            result = self._resolve_in_module(module, parts, 0)
            if result is not None:
                return result
        return self.resolve_global(self.expand_target(module, dotted))

    # -- classes ------------------------------------------------------
    def resolve_class(self, module: str, dotted: str) -> str | None:
        """Resolve ``dotted`` to a class id, or None for non-classes."""
        resolved = self.resolve_symbol(module, dotted)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def method_on_class(
        self, class_id: str, method: str, depth: int = 0
    ) -> str | None:
        """Look up ``method`` on a class, walking base classes."""
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        klass = self.classes.get(class_id)
        if klass is None:
            return None
        if method in klass.methods:
            return f"{class_id}.{method}"
        module = self.class_module[class_id]
        for base in klass.bases:
            base_id = self.resolve_class(module, base)
            if base_id is not None:
                found = self.method_on_class(base_id, method, depth + 1)
                if found is not None:
                    return found
        return None

    def annotation_class(self, module: str, annotation: str | None) -> str | None:
        """Best-effort class id for an annotation string.

        Handles string annotations, ``X | None`` unions, ``Optional[X]``
        and generic parameters (``Deque[int]`` -> ``Deque``).
        """
        if annotation is None:
            return None
        text = annotation.strip().strip("'\"").strip()
        if text.startswith("Optional[") and text.endswith("]"):
            text = text[len("Optional[") : -1]
        for part in text.split("|"):
            candidate = part.strip().strip("'\"").strip()
            if not candidate or candidate in {"None", "Any", "object"}:
                continue
            candidate = candidate.split("[", 1)[0].strip()
            resolved = self.resolve_class(module, candidate)
            if resolved is not None:
                return resolved
        return None

    def attribute_class(self, class_id: str, attr: str) -> str | None:
        """The class of ``self.<attr>`` per recorded annotations."""
        klass = self.classes.get(class_id)
        if klass is None:
            return None
        module = self.class_module[class_id]
        annotation = klass.attr_types.get(attr)
        if annotation is not None:
            resolved = self.annotation_class(module, annotation)
            if resolved is not None:
                return resolved
        for base in klass.bases:
            base_id = self.resolve_class(module, base)
            if base_id is not None:
                found = self.attribute_class(base_id, attr)
                if found is not None:
                    return found
        return None

    # -- exception hierarchy ------------------------------------------
    def exception_ancestors(self, name: str) -> tuple[str, ...]:
        """Transitive base-class simple names of exception ``name``."""
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for cid in self.classes_by_name.get(current, ()):
                for base in self.classes[cid].bases:
                    simple = base.rpartition(".")[2]
                    if simple not in seen:
                        seen.add(simple)
                        frontier.append(simple)
        return tuple(sorted(seen))

    def defining_module(self, class_name: str) -> str | None:
        """Module of the (first) class with this simple name."""
        ids = self.classes_by_name.get(class_name, ())
        return self.class_module[ids[0]] if ids else None

    # -- dispatch tables ----------------------------------------------
    def dispatch_handlers(self) -> dict[str, tuple[str, ...]]:
        """RPC method -> sorted handler function ids, across modules."""
        table: dict[str, set[str]] = {}
        for summary in self.summaries():
            for entry in summary.dispatch:
                fid = self._resolve_dispatch_target(summary, entry.target, entry.scope)
                if fid is not None and fid in self.functions:
                    table.setdefault(entry.method, set()).add(fid)
        return {method: tuple(sorted(fids)) for method, fids in table.items()}

    def _resolve_dispatch_target(
        self, summary: ModuleSummary, target: str, scope: str
    ) -> str | None:
        if target.startswith("self."):
            method = target[len("self.") :]
            if "." in method:
                return None
            owner = summary.functions.get(scope)
            if owner is not None and owner.class_name is not None:
                return self.method_on_class(
                    f"{summary.module}.{owner.class_name}", method
                )
            return None
        # Prefer siblings nested in the registering scope, then walk out.
        prefix = scope
        while prefix:
            candidate = f"{prefix}.{target}"
            if candidate in summary.functions:
                return f"{summary.module}.{candidate}"
            prefix = prefix.rpartition(".")[0]
        return self.resolve_symbol(summary.module, target)

    # -- call resolution ----------------------------------------------
    def resolve_call(
        self, fid: str, site: CallSite, dispatch: dict[str, tuple[str, ...]]
    ) -> ResolvedCall:
        """Resolve one call site of ``fid`` against ``dispatch``."""
        module = self.function_module[fid]
        function = self.functions[fid]
        expanded = self.expand_target(module, site.target)
        callees: set[str] = set()
        if site.partial_of is not None:
            partial_target = self._resolve_plain(module, function, site.partial_of)
            if partial_target is not None:
                callees.add(partial_target)
        if site.dynamic:
            for handlers in dispatch.values():
                callees.update(handlers)
        else:
            resolved = self._resolve_plain(module, function, site.target)
            if resolved is not None:
                callees.add(resolved)
        return ResolvedCall(
            site=site, expanded=expanded, callees=tuple(sorted(callees))
        )

    def _resolve_plain(
        self, module: str, function: FunctionSummary, target: str
    ) -> str | None:
        parts = target.split(".")
        head = parts[0]
        if head == "cls" and function.class_name is not None:
            class_id = f"{module}.{function.class_name}"
            if len(parts) == 1:
                return self.method_on_class(class_id, "__init__")
            if len(parts) == 2:
                return self.method_on_class(class_id, parts[1])
            return None
        if head == "self" and function.class_name is not None:
            class_id = f"{module}.{function.class_name}"
            if len(parts) == 2:
                return self.method_on_class(class_id, parts[1])
            if len(parts) == 3:
                attr_class = self.attribute_class(class_id, parts[1])
                if attr_class is not None:
                    return self.method_on_class(attr_class, parts[2])
            return None
        if head in function.param_annotations and len(parts) == 2:
            owner = self.annotation_class(module, function.param_annotations[head])
            if owner is not None:
                return self.method_on_class(owner, parts[1])
            return None
        # Bare or dotted name: prefer nested siblings of the caller.
        if len(parts) == 1:
            qual_prefix = function.qualname.rpartition(".")[0]
            summary = self.modules[module]
            while qual_prefix:
                candidate = f"{qual_prefix}.{head}"
                if candidate in summary.functions:
                    return f"{module}.{candidate}"
                qual_prefix = qual_prefix.rpartition(".")[0]
        resolved = self.resolve_symbol(module, target)
        if resolved is None:
            return None
        if resolved in self.classes:
            # Constructor call: the edge goes to __init__ when defined.
            init = self.method_on_class(resolved, "__init__")
            return init
        return resolved


class CallGraph:
    """Resolved per-site adjacency plus reachability helpers."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        # Keep only *protocol* dispatch tables: methods listed in a
        # ``*_METHODS`` constant or slash-namespaced (``admin/...``).
        # Handler-shaped dicts with other keys (fault-scenario
        # registries, rule tables) are not RPC dispatch, and letting
        # dynamic calls resolve into them would fabricate call chains.
        protocol = protocol_methods(index)
        self.dispatch = {
            method: handlers
            for method, handlers in index.dispatch_handlers().items()
            if "/" in method or method in protocol
        }
        self.resolved: dict[str, tuple[ResolvedCall, ...]] = {}
        for fid in sorted(index.functions):
            function = index.functions[fid]
            self.resolved[fid] = tuple(
                index.resolve_call(fid, site, self.dispatch)
                for site in function.calls
            )

    def calls_of(self, fid: str) -> tuple[ResolvedCall, ...]:
        """Every resolved call site of function ``fid``."""
        return self.resolved.get(fid, ())

    def callees(self, fid: str) -> tuple[str, ...]:
        """Sorted union of callee ids over all of ``fid``'s call sites."""
        out: set[str] = set()
        for call in self.calls_of(fid):
            out.update(call.callees)
        return tuple(sorted(out))

    def callers(self) -> dict[str, tuple[tuple[str, ResolvedCall], ...]]:
        """callee id -> sorted ((caller id, resolved site), ...)."""
        table: dict[str, list[tuple[str, ResolvedCall]]] = {}
        for fid in sorted(self.resolved):
            for call in self.resolved[fid]:
                for callee in call.callees:
                    table.setdefault(callee, []).append((fid, call))
        return {k: tuple(v) for k, v in table.items()}

    def shortest_path(self, start: str, goals: set[str]) -> tuple[str, ...]:
        """Deterministic BFS path from ``start`` to any goal (inclusive)."""
        if start in goals:
            return (start,)
        parents: dict[str, str] = {start: start}
        frontier = [start]
        while frontier:
            next_frontier: list[str] = []
            for fid in frontier:
                for callee in self.callees(fid):
                    if callee in parents:
                        continue
                    parents[callee] = fid
                    if callee in goals:
                        path = [callee]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return tuple(reversed(path))
                    next_frontier.append(callee)
            frontier = next_frontier
        return ()
