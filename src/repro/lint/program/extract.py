"""AST extraction: one source file -> :class:`ModuleSummary`.

The walker makes a single pass over the module tree. Functions are
summarized without descending into nested ``def``s (each nested
function gets its own :class:`FunctionSummary`, inheriting the
enclosing function's parameter annotations so dispatch handlers keep
the builder's ``broker: Broker``-style types).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from .summary import (
    JOURNAL_SCOPE_CALLS,
    MUTATING_METHODS,
    _IGNORE_RE,
    CallSite,
    ClassSummary,
    DispatchEntry,
    FunctionSummary,
    ModuleSummary,
    MutationSite,
    RaiseSite,
    dotted_name,
)


def summarize_source(source: str, module: str, path: str) -> ModuleSummary:
    """Summarize one module's source text (no imports executed)."""
    tree = ast.parse(source)
    summary = ModuleSummary(module=module, path=path)
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match:
            rules = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            summary.ignores[lineno] = rules
    _ModuleWalker(summary).walk(tree)
    return summary


class _ModuleWalker:
    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self.is_package = summary.path.endswith("__init__.py")

    def walk(self, tree: ast.Module) -> None:
        self._stmts(tree.body, prefix="", class_name=None, inherited={})

    # ------------------------------------------------------------------
    def _stmts(
        self,
        stmts: Sequence[ast.stmt],
        prefix: str,
        class_name: str | None,
        inherited: dict[str, str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, prefix, class_name, inherited)
            elif isinstance(stmt, ast.ClassDef):
                self._class(stmt, prefix, inherited)
            elif isinstance(stmt, ast.Import):
                self._import(stmt)
            elif isinstance(stmt, ast.ImportFrom):
                self._import_from(stmt)
            elif isinstance(stmt, ast.If):
                self._scan_dicts(stmt.test)
                self._stmts(stmt.body, prefix, class_name, inherited)
                self._stmts(stmt.orelse, prefix, class_name, inherited)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._stmts(block, prefix, class_name, inherited)
                for handler in stmt.handlers:
                    self._stmts(handler.body, prefix, class_name, inherited)
            else:
                if not prefix and class_name is None and isinstance(
                    stmt, (ast.Assign, ast.AnnAssign)
                ):
                    self._module_constant(stmt)
                self._scan_dicts(stmt)

    def _scan_dicts(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Dict):
                self._dispatch_entries(child, scope="")

    # ------------------------------------------------------------------
    def _import(self, stmt: ast.Import) -> None:
        for alias in stmt.names:
            if alias.asname is not None:
                self.summary.imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                self.summary.imports[head] = head

    def _import_from(self, stmt: ast.ImportFrom) -> None:
        if stmt.level == 0:
            base = stmt.module or ""
        else:
            parts = self.summary.module.split(".")
            # For a package __init__, level 1 means the package itself.
            drop = stmt.level - 1 if self.is_package else stmt.level
            if drop:
                parts = parts[:-drop] if drop < len(parts) else []
            base = ".".join(parts)
            if stmt.module:
                base = f"{base}.{stmt.module}" if base else stmt.module
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = f"{base}.{alias.name}" if base else alias.name
            self.summary.imports[local] = target

    # ------------------------------------------------------------------
    def _module_constant(self, stmt: ast.Assign | ast.AnnAssign) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                return
            name = stmt.targets[0].id
            value: ast.expr | None = stmt.value
        else:
            if not isinstance(stmt.target, ast.Name):
                return
            name = stmt.target.id
            value = stmt.value
        if value is None:
            return
        strings = _string_elements(value)
        if strings is not None:
            self.summary.str_tuples[name] = strings

    def _dispatch_entries(self, node: ast.Dict, scope: str) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, (ast.Name, ast.Attribute))
            ):
                target = dotted_name(value)
                if target is not None:
                    self.summary.dispatch.append(
                        DispatchEntry(
                            method=key.value,
                            target=target,
                            lineno=key.lineno,
                            scope=scope,
                        )
                    )

    # ------------------------------------------------------------------
    def _class(
        self, node: ast.ClassDef, prefix: str, inherited: dict[str, str]
    ) -> None:
        qual = f"{prefix}.{node.name}" if prefix else node.name
        bases: list[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is not None:
                bases.append(dotted)
        attr_types: dict[str, str] = {}
        methods: list[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                attr_types[stmt.target.id] = _unparse(stmt.annotation)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
        self.summary.classes[qual] = ClassSummary(
            name=qual,
            lineno=node.lineno,
            bases=tuple(bases),
            methods=tuple(methods),
            attr_types=attr_types,
        )
        self._stmts(node.body, prefix=qual, class_name=qual, inherited=inherited)

    # ------------------------------------------------------------------
    def _function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_name: str | None,
        inherited: dict[str, str],
    ) -> None:
        qual = f"{prefix}.{node.name}" if prefix else node.name
        params: list[str] = []
        annotations: dict[str, str] = dict(inherited)
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            params.append(arg.arg)
            if arg.annotation is not None:
                annotations[arg.arg] = _unparse(arg.annotation)
        function = FunctionSummary(
            qualname=qual,
            lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name,
            params=tuple(params),
            param_annotations=annotations,
        )
        self.summary.functions[qual] = function
        extractor = _FunctionExtractor(self, function)
        extractor.run(node.body)
        # Attribute annotations discovered in the body (``self.x: T`` or
        # ``self.x = <annotated param>``) enrich the owning class; class
        # body declarations win.
        if class_name is not None and class_name in self.summary.classes:
            klass = self.summary.classes[class_name]
            for attr, annotation in extractor.self_attr_types.items():
                klass.attr_types.setdefault(attr, annotation)
        # Nested defs are summarized with this function's annotations in
        # scope (dispatch builders close over typed params).
        self._stmts(node.body, prefix=qual, class_name=None, inherited=annotations)


def _string_elements(value: ast.expr) -> tuple[str, ...] | None:
    node = value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"frozenset", "tuple", "set", "list"}
        and len(node.args) == 1
    ):
        node = node.args[0]
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    out: list[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            out.append(element.value)
        else:
            return None
    return tuple(out)


def _unparse(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return "?"


class _FunctionExtractor:
    """Summarize one function body (no descent into nested defs)."""

    def __init__(self, walker: _ModuleWalker, function: FunctionSummary) -> None:
        self.walker = walker
        self.fn = function
        #: locals bound from a subscript (``handler = table[m]``).
        self.subscript_vars: set[str] = set()
        self.self_attr_types: dict[str, str] = {}
        #: AST node ids already handled by a targeted rule.
        self.consumed: set[int] = set()

    # -- public --------------------------------------------------------
    def run(self, body: Sequence[ast.stmt]) -> None:
        self._block(body, guards=(), scope=False)

    # -- statement walk ------------------------------------------------
    def _block(
        self, stmts: Sequence[ast.stmt], guards: tuple[str, ...], scope: bool
    ) -> None:
        for stmt in stmts:
            self._stmt(stmt, guards, scope)

    def _stmt(self, stmt: ast.stmt, guards: tuple[str, ...], scope: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # summarized separately
        if isinstance(stmt, ast.Try):
            caught: list[str] = []
            for handler in stmt.handlers:
                caught.extend(_handler_names(handler))
            self._block(stmt.body, guards + tuple(caught), scope)
            for handler in stmt.handlers:
                self._block(handler.body, guards, scope)
            self._block(stmt.orelse, guards, scope)
            self._block(stmt.finalbody, guards, scope)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            journal = False
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    dotted = dotted_name(expr.func)
                    if dotted is not None and (
                        dotted.rpartition(".")[2] in JOURNAL_SCOPE_CALLS
                    ):
                        journal = True
                self._expr(expr, guards, scope)
            if journal:
                self.fn.has_journal_scope = True
            self._block(stmt.body, guards, scope or journal)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test, guards, scope)
            self._block(stmt.body, guards, scope)
            self._block(stmt.orelse, guards, scope)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, guards, scope)
            self._block(stmt.body, guards, scope)
            self._block(stmt.orelse, guards, scope)
            return
        if isinstance(stmt, ast.Match):
            self._expr(stmt.subject, guards, scope)
            for case in stmt.cases:
                self._block(case.body, guards, scope)
            return
        if isinstance(stmt, ast.Raise):
            self._raise(stmt, guards, scope)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt.lineno, guards, scope)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._ann_assign(stmt, guards, scope)
            return
        if isinstance(stmt, ast.AugAssign):
            self._mutation_target(stmt.target, "augassign", stmt.lineno, scope)
            self._expr(stmt.value, guards, scope)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._mutation_target(target, "delitem", stmt.lineno, scope)
                    self._expr(target.slice, guards, scope)
            return
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, guards, scope)
            return
        # Return / Assert / Global / Nonlocal / Pass / etc: scan embedded exprs.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child, guards, scope)

    # -- assignments ---------------------------------------------------
    def _ann_assign(
        self, stmt: ast.AnnAssign, guards: tuple[str, ...], scope: bool
    ) -> None:
        target = stmt.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.self_attr_types.setdefault(target.attr, _unparse(stmt.annotation))
        if stmt.value is not None:
            self._assign([target], stmt.value, stmt.lineno, guards, scope)

    def _assign(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr,
        lineno: int,
        guards: tuple[str, ...],
        scope: bool,
    ) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._mutation_target(target, "setitem", lineno, scope)
                self._expr(target.slice, guards, scope)
            elif isinstance(target, ast.Attribute):
                self._attr_type_from_assign(target, value)
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, ast.Subscript)
        ):
            self.subscript_vars.add(targets[0].id)
        self._expr(value, guards, scope)

    def _attr_type_from_assign(self, target: ast.Attribute, value: ast.expr) -> None:
        if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
            return
        if isinstance(value, ast.Name):
            annotation = self.fn.param_annotations.get(value.id)
            if annotation is not None:
                self.self_attr_types.setdefault(target.attr, annotation)
        elif isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None and dotted.rpartition(".")[2][:1].isupper():
                self.self_attr_types.setdefault(target.attr, dotted)

    # -- raises --------------------------------------------------------
    def _raise(self, stmt: ast.Raise, guards: tuple[str, ...], scope: bool) -> None:
        exc = stmt.exc
        name: str | None = None
        if isinstance(exc, ast.Call):
            dotted = dotted_name(exc.func)
            if dotted is not None:
                name = dotted.rpartition(".")[2]
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            dotted = dotted_name(exc)
            if dotted is not None:
                name = dotted.rpartition(".")[2]
        if name is not None and name[:1].isupper():
            self.fn.raises.append(
                RaiseSite(exception=name, lineno=stmt.lineno, guards=guards)
            )
        if exc is not None:
            self._expr(exc, guards, scope)

    # -- expression walk -----------------------------------------------
    def _expr(
        self, node: ast.expr | None, guards: tuple[str, ...], scope: bool
    ) -> None:
        if node is None:
            return
        for sub in _walk_expr(node):
            if id(sub) in self.consumed:
                continue
            if isinstance(sub, ast.Call):
                self._call(sub, guards, scope)
            elif isinstance(sub, ast.Dict):
                self.walker._dispatch_entries(sub, scope=self.fn.qualname)

    def _call(self, node: ast.Call, guards: tuple[str, ...], scope: bool) -> None:
        self.consumed.add(id(node))
        func = node.func
        target = dotted_name(func) or "?"
        terminal = target.rpartition(".")[2]
        # container mutation through self/param attribute chain
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            receiver = dotted_name(func.value)
            if receiver is not None:
                root = receiver.split(".", 1)[0]
                if (root == "self" or root in self.fn.params) and receiver != root:
                    self.fn.mutations.append(
                        MutationSite(
                            target=receiver,
                            kind=f"call:{func.attr}",
                            lineno=node.lineno,
                            in_journal_scope=scope,
                        )
                    )
        partial_of: str | None = None
        if terminal == "partial" and node.args:
            partial_of = dotted_name(node.args[0])
        # A call through a table-valued callable (``handler = table[m];
        # handler(payload)``) or a ``*Handler``-annotated parameter is
        # dynamic dispatch and resolves to every protocol handler.
        # Other callable parameters (``memoized(..., compute)``) get no
        # edge: treating them as dispatch would wire unrelated
        # callbacks into every handler's call chain.
        annotation = self.fn.param_annotations.get(target) or ""
        dynamic = isinstance(func, ast.Name) and (
            func.id in self.subscript_vars
            or (
                func.id in self.fn.params
                and annotation.rpartition(".")[2].endswith("Handler")
            )
        )
        self.fn.calls.append(
            CallSite(
                target=target,
                lineno=node.lineno,
                guards=guards,
                in_journal_scope=scope,
                dynamic=dynamic,
                partial_of=partial_of,
            )
        )

    # -- mutations -----------------------------------------------------
    def _mutation_target(
        self, target: ast.expr, kind: str, lineno: int, scope: bool
    ) -> None:
        receiver: ast.expr = target
        if isinstance(receiver, ast.Subscript):
            receiver = receiver.value
        dotted = dotted_name(receiver)
        if dotted is None:
            return
        root = dotted.split(".", 1)[0]
        if root != "self" and root not in self.fn.params:
            return
        if dotted == root:
            return  # plain local/parameter rebinding
        self.fn.mutations.append(
            MutationSite(
                target=dotted, kind=kind, lineno=lineno, in_journal_scope=scope
            )
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["BaseException"]
    nodes: Iterable[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        nodes = handler.type.elts
    else:
        nodes = [handler.type]
    names: list[str] = []
    for node in nodes:
        dotted = dotted_name(node)
        if dotted is not None:
            names.append(dotted.rpartition(".")[2])
    return names


def _walk_expr(node: ast.expr) -> Iterator[ast.AST]:
    """Pre-order walk that does not descend into lambda bodies."""
    yield node
    if isinstance(node, ast.Lambda):
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            yield from _walk_expr(child)
        elif isinstance(child, (ast.comprehension, ast.keyword)):
            for sub in ast.iter_child_nodes(child):
                if isinstance(sub, ast.expr):
                    yield from _walk_expr(sub)
