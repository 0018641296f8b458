"""Wire-schema coverage: every protocol method is served and sent.

For every RPC method in the protocol universe (``*_METHODS`` constants
plus the daemon admin plane): the method has a dispatch handler and at
least one client-side sender, and every sent method has a handler. The
rule reads method names only. What a message of each method carries is
declared in ``net/registry.WIRE_SCHEMA``: the dispatch builders refuse a
request against it at runtime, and ``tests/net/test_wire_schema.py``
holds the flows' traffic, the records' ``to_wire`` and the codec's
abbreviations to it. Senders living in rule-excluded paths (fault
injectors) contribute no coverage.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding

from ..summary import RpcSend
from . import ProgramContext, ProgramRule, register


@register
class WireSchemaRule(ProgramRule):
    id = "wire-schema"
    description = (
        "every protocol method has a dispatch handler and a sender, and "
        "every sent method has a handler"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        index = program.index
        universe = set(program.method_universe())
        dispatch = {
            method: tuple(
                fid
                for fid in handlers
                if program.rule_applies(self.id, index.function_module[fid])
            )
            for method, handlers in program.graph.dispatch.items()
        }
        senders: dict[str, list[tuple[str, RpcSend]]] = {}
        for fid in sorted(index.functions):
            module = index.function_module[fid]
            if not program.rule_applies(self.id, module):
                continue
            for send in index.functions[fid].rpc_sends:
                senders.setdefault(send.method, []).append((fid, send))

        emitted: set[tuple[str, int, str]] = set()

        def emit(module: str, lineno: int, message: str) -> Iterator[Finding]:
            key = (index.path_of(module), lineno, message)
            if key not in emitted:
                emitted.add(key)
                yield program.finding(self.id, module, lineno, message)

        for method in sorted(universe):
            handlers = dispatch.get(method, ())
            sends = senders.get(method, [])
            if not handlers:
                if sends:
                    fid, send = sends[0]
                    yield from emit(
                        index.function_module[fid],
                        send.lineno,
                        f"method '{method}' is sent here but no dispatch "
                        "table registers a handler for it",
                    )
                else:
                    yield from emit(
                        self._universe_module(program, method),
                        1,
                        f"method '{method}' is listed in a *_METHODS "
                        "constant but has neither handler nor sender",
                    )
                continue
            if not sends:
                fid = handlers[0]
                yield from emit(
                    index.function_module[fid],
                    index.functions[fid].lineno,
                    f"method '{method}' is served by "
                    f"'{index.functions[fid].qualname}' but no client flow "
                    "or daemon call ever sends it",
                )
        for method in sorted(senders):
            if method in universe:
                continue
            if method not in dispatch:
                fid, send = senders[method][0]
                yield from emit(
                    index.function_module[fid],
                    send.lineno,
                    f"method '{method}' is sent here but is neither in the "
                    "*_METHODS universe nor handled by any dispatch table",
                )

    @staticmethod
    def _universe_module(program: ProgramContext, method: str) -> str:
        """The module whose ``*_METHODS`` constant lists ``method``."""
        suffix = program.program.methods_const_suffix
        for summary in program.index.summaries():
            for name, values in summary.str_tuples.items():
                if name.endswith(suffix) and method in values:
                    return summary.module
        return next(iter(program.index.modules), "<unknown>")
