"""Async-safety: no blocking call reachable from a daemon coroutine or callback.

Seeds are functions that are blocking *by themselves*: they call a
configured blocking primitive (``time.sleep``, ``os.fsync``, ...) or
their id is configured as primitively blocking (the store's synchronous
I/O surface — listed explicitly rather than resolved through untyped
shard lists). Blocking-ness then propagates backwards over the resolved
call graph, including the dynamic-dispatch over-approximation
(``handler(payload)`` reaches every registered handler).

The roots are what the event loop runs: every coroutine in a configured
root module, and every method there named as a protocol callback
(``data_received`` and the rest of ``asyncio.Protocol``'s, plus
``frame_received``, which a frame protocol calls per frame inside
``data_received``) — a daemon that serves a request inside the callback
that read it blocks the loop there as surely as in a coroutine.

Findings are reported at the boundary of the roots only: a root gets one
finding per call site whose callee is blocking-reachable and neither
async nor itself a root (or which invokes a primitive directly).
Await-ing a blocking async callee, or calling a blocking root, is not
reported at the caller — the callee gets its own finding — so one
deliberate blocking site needs exactly one inline suppression, not one
per transitive caller.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import PROTOCOL_CALLBACKS
from repro.lint.findings import Finding

from . import ProgramContext, ProgramRule, register


@register
class AsyncSafetyRule(ProgramRule):
    id = "async-safety"
    description = (
        "no blocking primitive (sleep, fsync, synchronous store I/O, "
        "pool joins) may be reachable from repro.daemon coroutines or "
        "protocol callbacks"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        index = program.index
        graph = program.graph
        config = program.program

        # -- seeds: directly blocking functions -----------------------
        seeds: dict[str, str] = {}
        for fid in sorted(index.functions):
            if fid in config.blocking_qualnames:
                seeds[fid] = "synchronous store I/O"
        for fid in sorted(index.functions):
            if fid in seeds:
                continue
            for resolved in graph.calls_of(fid):
                if resolved.expanded in config.blocking_calls:
                    seeds[fid] = resolved.expanded
                    break

        # -- backward propagation to a fixpoint -----------------------
        blocking: set[str] = set(seeds)
        changed = True
        while changed:
            changed = False
            for fid in sorted(index.functions):
                if fid in blocking:
                    continue
                for resolved in graph.calls_of(fid):
                    if any(callee in blocking for callee in resolved.callees):
                        blocking.add(fid)
                        changed = True
                        break

        seed_set = set(seeds)

        def is_root(fid: str) -> bool:
            function = index.functions[fid]
            if not function.is_async and not (
                function.class_name is not None
                and function.qualname.rpartition(".")[2] in PROTOCOL_CALLBACKS
            ):
                return False
            module = index.function_module[fid]
            return program.in_modules(module, config.async_root_modules)

        # -- report at the boundary of the roots ----------------------
        for fid in sorted(index.functions):
            if not is_root(fid):
                continue
            function = index.functions[fid]
            module = index.function_module[fid]
            if not program.rule_applies(self.id, module):
                continue
            for resolved in graph.calls_of(fid):
                direct = resolved.expanded in config.blocking_calls
                sync_blocking = sorted(
                    callee
                    for callee in resolved.callees
                    if callee in blocking
                    and not index.functions[callee].is_async
                    and not is_root(callee)
                )
                if not direct and not sync_blocking:
                    continue
                if direct:
                    chain = resolved.expanded
                else:
                    path = graph.shortest_path(sync_blocking[0], seed_set)
                    steps = [index.functions[step].qualname for step in path]
                    if path:
                        chain = " -> ".join(steps) + f" [{seeds[path[-1]]}]"
                    else:
                        chain = index.functions[sync_blocking[0]].qualname
                role = "coroutine" if function.is_async else "callback"
                yield program.finding(
                    self.id,
                    module,
                    resolved.site.lineno,
                    f"{role} '{function.qualname}' can block the event "
                    f"loop here: {chain}",
                )
