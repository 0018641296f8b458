"""The load generator: closed-loop and open-loop drivers in one asyncio process.

Closed loop: each client sends its next request only after the previous
reply, so a slow system receives less load — wallets and merchants that
wait for their answer. Open loop: requests fire on a schedule whether or
not earlier ones have finished — independent shoppers — and each one's
latency is charged **from the time it was due**, so a stall is paid for
by every request that queued behind it; how late the generator itself
fired is reported alongside.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

from repro.daemon.client import SocketTransport
from repro.net.registry import Flow, RemoteCall

from bench.tracing import Tracer

#: One operation: performs its request, checks its reply, raises on failure.
Op = Callable[[], Awaitable[None]]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supports(values: Sequence[float], q: float) -> bool:
    """Whether at least ten samples lie beyond percentile ``q``."""
    return len(values) - math.ceil(q * len(values) - 1e-9) >= 10


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


@dataclass
class PhaseResult:
    """Counts and timings of one phase.

    ``latencies_ms`` holds successful operations only; a failed or refused
    operation counts against any latency limit instead. ``wall_s``,
    ``latencies_ms`` and ``op_s`` are as the clock read them;
    ``corrected_ms`` and ``corrected_op_s`` are the same timings as they
    would have read with the host at its reference speed (see
    :mod:`bench.hostspeed`), filled in by :meth:`absorb`.
    """

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Open loop only: how late each request fired against its schedule.
    lateness_ms: list[float] = field(default_factory=list)
    corrected_ms: list[float] = field(default_factory=list)
    #: Per absorbed block: seconds per successful operation.
    op_s: list[float] = field(default_factory=list)
    corrected_op_s: list[float] = field(default_factory=list)

    @property
    def block_per_s(self) -> float:
        """Operations per second in the middle half of the absorbed blocks.

        The midmean of the blocks' seconds per operation, inverted: a
        block that sat through a disk stall (deposit blocks at 11 and 7
        ms per coin among ten at 3.3-4.6) or is a deployment's first
        falls in an outer quarter and does not drag the rate.
        """
        return 1.0 / midmean(self.op_s) if self.op_s else 0.0

    @property
    def corrected_per_s(self) -> float:
        """:attr:`block_per_s` at the reference host speed."""
        return 1.0 / midmean(self.corrected_op_s) if self.corrected_op_s else 0.0

    def absorb(self, block: "PhaseResult", slowdown: float = 1.0) -> None:
        """Merge one block in; ``slowdown`` is how much the host stretched its timings."""
        self.attempted += block.attempted
        self.failed += block.failed
        self.wall_s += block.wall_s
        self.latencies_ms.extend(block.latencies_ms)
        self.lateness_ms.extend(block.lateness_ms)
        self.errors.extend(block.errors[: 5 - len(self.errors)])
        self.corrected_ms.extend(ms / slowdown for ms in block.latencies_ms)
        done = block.attempted - block.failed
        if done:
            self.op_s.append(block.wall_s / done)
            self.corrected_op_s.append(block.wall_s / done / slowdown)

    def record_failure(self, error: BaseException) -> None:
        """Count one failed operation, keeping the first few messages."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")


async def closed_loop(queues: Sequence[Sequence[Op]]) -> PhaseResult:
    """Run one worker per queue, each waiting for a reply before its next op."""
    result = PhaseResult()

    async def worker(ops: Sequence[Op]) -> None:
        for op in ops:
            result.attempted += 1
            started = time.perf_counter()
            try:
                await op()
            except Exception as error:  # a failed request is a counted outcome
                result.record_failure(error)
            else:
                result.latencies_ms.append((time.perf_counter() - started) * 1000.0)

    started = time.perf_counter()
    await asyncio.gather(*(worker(ops) for ops in queues))
    result.wall_s = time.perf_counter() - started
    return result


async def open_loop(schedule: Sequence[float], ops: Sequence[Op]) -> PhaseResult:
    """Fire ``ops[i]`` at ``schedule[i]`` seconds from now, never waiting for replies.

    Latency runs from the due time, not from when the request was
    actually sent; ``wall_s`` runs from the first due time to the last
    completion.
    """
    result = PhaseResult()
    origin = time.perf_counter()

    async def fire(op: Op, due: float) -> None:
        try:
            await op()
        except Exception as error:  # a failed request is a counted outcome
            result.record_failure(error)
        else:
            result.latencies_ms.append((time.perf_counter() - due) * 1000.0)

    tasks = []
    for offset, op in zip(schedule, ops):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
        result.attempted += 1
        tasks.append(asyncio.create_task(fire(op, due)))
    await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - (origin + schedule[0])
    return result


async def run_flow(transport: SocketTransport, flow: Flow, tracer: Tracer | None) -> Any:
    """Drive a protocol flow; with a tracer, span every client step and RPC.

    Untraced this is :meth:`SocketTransport.run_flow` itself. Traced it
    is the same loop with a ``client.compute`` span around each resume of
    the flow generator (the client-side crypto) and an ``rpc.<method>``
    span around each call.
    """
    if tracer is None:
        return await transport.run_flow("", flow)
    reply: Any = None
    failure: BaseException | None = None
    while True:
        try:
            with tracer.span("client.compute"):
                if failure is not None:
                    error, failure = failure, None
                    call = flow.throw(error)
                else:
                    call = flow.send(reply)
        except StopIteration as stop:
            return stop.value
        assert isinstance(call, RemoteCall)
        try:
            with tracer.span(f"rpc.{call.method}"):
                reply = await transport.call(
                    call.destination, call.method, call.payload, call.timeout
                )
        except Exception as error:  # thrown back into the flow, as the transport does
            failure = error
            reply = None
