"""The daemon server: core actors behind an authenticated asyncio socket.

:class:`DaemonNode` is the server half of the RPC layer — it accepts
connections, runs the mutual handshake, then serves requests from a
registry dispatch table (the same tables the sim registers on its
simulated hosts). A request is served inside the callback that read
its frame, so requests are handled in arrival order and a reply leaves
only once its handler has returned; only a handler that waits (the
storefront's ``pay``, ``admin/deposit``) gets a task.
:class:`BrokerDaemon`, :class:`WitnessDaemon` and
:class:`MerchantDaemon` wrap a node around the matching
:class:`~repro.core.system.EcashSystem` party.

Byte accounting mirrors the sim: every non-admin request/response is
recorded on the node's :class:`~repro.net.transport.TrafficMeter` as
``len(body) + HTTP_FRAMING_BYTES``, and a per-RPC log keeps the exact
``(method, request bytes, response bytes, kind)`` tuples of the most
recent :data:`RPC_LOG_ENTRIES` calls so a loopback run can be checked
against a sim replay of the same scenario.

The protocol clock is pinnable over the control plane (``admin/clock``)
— scripted scenarios pin every daemon to the same protocol second before
each step, which is what makes timestamps (and therefore signatures and
message bytes) reproducible across backends.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
from collections import deque
from collections.abc import Awaitable, Coroutine, Generator, Mapping
from typing import TYPE_CHECKING, Any

from repro import obs, perf
from repro.core.exceptions import EcashError
from repro.core.system import EcashSystem
from repro.crypto import backend as bigint_backend
from repro.net import registry
from repro.net.transport import TrafficMeter
from repro.daemon import wire
from repro.daemon.auth import HandshakeError, server_handshake
from repro.daemon.client import SocketTransport
from repro.daemon.framing import (
    Frame,
    FrameError,
    FrameProtocol,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
)
from repro.daemon.keys import NodeIdentity

#: Control-plane method prefix; see :data:`repro.daemon.client.ADMIN_PREFIX`.
from repro.daemon.client import ADMIN_PREFIX

if TYPE_CHECKING:
    from repro.store import RecoveryStats, Store

#: Per-RPC log entries a daemon keeps (and ``admin/stats`` returns): a
#: full ring encodes to well under half the 1 MiB frame cap.
RPC_LOG_ENTRIES = 4096


class DaemonClock:
    """The protocol clock: whole seconds, wall-driven but pinnable.

    Free-running it counts seconds since the daemon started (monotonic,
    so never jumps backwards); ``admin/clock`` pins it to an absolute
    protocol second for scripted cross-process scenarios.
    """

    def __init__(self) -> None:
        self._origin = time.monotonic()
        self._pinned: int | None = None

    def now(self) -> int:
        """The current protocol second."""
        if self._pinned is not None:
            return self._pinned
        return int(time.monotonic() - self._origin)

    def pin(self, value: int) -> None:
        """Freeze the clock at ``value`` until :meth:`unpin`."""
        self._pinned = value

    def unpin(self) -> None:
        """Resume free-running time."""
        self._pinned = None


class DaemonNode:
    """One daemon: an authenticated TCP server over a dispatch table.

    Args:
        identity: this node's name and transport keypair.
        authorized: the deployment roster (``name -> public key``).
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`port` after
            :meth:`start`).
        handlers: protocol dispatch table (admin handlers are added on
            top and must not collide).
        clock: the protocol clock, exposed over ``admin/clock``.
        transport: outbound transport for nested calls (merchant
            daemons); shares this node's meter when provided.
        recovery: what the durable store's recovery did before this
            node was built (a durable daemon); ``admin/stats`` reports it.
        fatal: exception types that stop the node: a handler that raised
            one gets its error frame written, then the node answers no
            further frame and shuts down (a durable daemon's
            :class:`~repro.store.StoreError`).
    """

    def __init__(
        self,
        identity: NodeIdentity,
        authorized: Mapping[str, int],
        host: str,
        port: int,
        handlers: dict[str, registry.Handler],
        clock: DaemonClock,
        transport: SocketTransport | None = None,
        recovery: RecoveryStats | None = None,
        fatal: tuple[type[Exception], ...] = (),
    ) -> None:
        self.identity = identity
        self.authorized = dict(authorized)
        self.host = host
        self.port = port
        self.clock = clock
        self.transport = transport
        self.recovery = recovery
        self.fatal = fatal
        #: The fatal error that stopped this node, once one did.
        self.failure: Exception | None = None
        #: CPU milliseconds this process had used when the listener bound:
        #: interpreter start, imports, system construction and recovery.
        self.startup_cpu_ms = 0.0
        self.meter = transport.meter if transport is not None else TrafficMeter()
        #: One ``{method, request_bytes, response_bytes, kind}`` entry per
        #: protocol RPC served, in completion order; the oldest entries
        #: fall off once :data:`RPC_LOG_ENTRIES` are held.
        self.rpc_log: deque[dict[str, Any]] = deque(maxlen=RPC_LOG_ENTRIES)
        #: Per method served: ``(requests, total handler seconds)``, from
        #: the request frame parsed to the response body built — nested
        #: calls included, so ``pay`` reads its wall time, not its compute.
        self.handler_time: dict[str, tuple[int, float]] = {}
        self.handlers: dict[str, registry.Handler] = dict(handlers)
        for method, handler in self._admin_handlers().items():
            if method in self.handlers:
                raise ValueError(f"dispatch table already defines {method!r}")
            self.handlers[method] = handler
        self._rng = random.Random(os.urandom(16))
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        #: Handshakes and waiting handlers in progress.
        self._tasks: set[asyncio.Task[Any]] = set()
        #: Open connections, from accept to loss.
        self._connections: set[_ServerConnection] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _ServerConnection(self), self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self.startup_cpu_ms = time.process_time() * 1000.0

    async def serve_until_shutdown(self) -> None:
        """Serve until ``admin/shutdown`` arrives, then close cleanly.

        Raises:
            Exception: the :attr:`fatal` error a handler raised, once the
                node has stopped.
        """
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()
        if self.failure is not None:
            raise self.failure

    async def stop(self) -> None:
        """Close the listener, open tasks and connections, outbound ones too.

        Returns only once every connection and task has ended: a task
        still pending when the loop closes is cancelled by the loop
        itself, which asyncio reports on stderr.
        """
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(
            *(connection.close() for connection in list(self._connections)),
            *self._tasks,
            return_exceptions=True,
        )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.transport is not None:
            await self.transport.close()

    def _spawn(self, work: Coroutine[Any, Any, None]) -> None:
        task = asyncio.get_running_loop().create_task(work)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _admin_handlers(self) -> dict[str, registry.Handler]:
        def ping(payload: dict[str, Any]) -> dict[str, Any]:
            del payload
            return {"pong": 1, "name": self.identity.name}

        def clock(payload: dict[str, Any]) -> dict[str, Any]:
            value = registry.as_int(payload["now"])
            self.clock.pin(value)
            return {"now": value}

        def stats(payload: dict[str, Any]) -> dict[str, Any]:
            del payload
            out: dict[str, Any] = {
                "sent": self.meter.sent_bytes,
                "received": self.meter.received_bytes,
                "messages_sent": self.meter.messages_sent,
                "messages_received": self.meter.messages_received,
                # The backend fallback is silent by design; this is where
                # a node that lost its libgmp shows.
                "backend": bigint_backend.name(),
                "backend_version": bigint_backend.gmp_version() or "",
                "startup_cpu_ms": f"{self.startup_cpu_ms:.1f}",
                # Fixed-base tables built and memo entries held, per cache.
                "perf": perf.cache_stats(),
                # Memo hits and misses, per cache.
                "memo": perf.memo_hit_stats(),
            }
            if self.recovery is not None:
                out["recovery"] = {
                    "snapshot": self.recovery.snapshot_records,
                    "replayed": self.recovery.replayed_records,
                    "discarded": self.recovery.discarded_records,
                    "torn_bytes": self.recovery.truncated_bytes,
                    "replay_ms": f"{self.recovery.replay_ms:.1f}",
                }
            for index, entry in enumerate(self.rpc_log):
                out[f"l{index}"] = {
                    "method": entry["method"],
                    "req": entry["request_bytes"],
                    "resp": entry["response_bytes"],
                    "kind": entry["kind"],
                }
            for index, (method, (count, seconds)) in enumerate(self.handler_time.items()):
                out[f"t{index}"] = {
                    "method": method,
                    "count": count,
                    "seconds": f"{seconds:.6f}",
                }
            return out

        def shutdown(payload: dict[str, Any]) -> dict[str, Any]:
            del payload
            return {"stopping": 1}

        return {
            "admin/ping": ping,
            "admin/clock": clock,
            "admin/stats": stats,
            "admin/shutdown": shutdown,
        }


class _ServerConnection(FrameProtocol):
    """One inbound connection: authenticated first, then served frame by frame."""

    def __init__(self, node: DaemonNode) -> None:
        super().__init__()
        self.node = node

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.node._connections.add(self)
        self.node._spawn(self._authenticate())

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        self.node._connections.discard(self)

    async def _authenticate(self) -> None:
        node = self.node
        try:
            peer = await server_handshake(self, node.identity, node.authorized, node._rng)
        except (HandshakeError, FrameError, ValueError):
            obs.counter_inc("daemon_handshake_rejected_total")
            self.transport.close()
            return
        obs.counter_inc("daemon_connections_total", peer=peer)
        self.start_frames()

    def frame_received(self, frame: Frame) -> None:
        node = self.node
        if frame.kind != KIND_REQUEST or node.failure is not None:
            return  # stray control/response frames, or a stopping node
        started = time.perf_counter()
        try:
            method, payload = wire.parse_request(frame.body)
        except ValueError as error:
            self._respond(frame, "?", False, started, error)
            return
        metered = not method.startswith(ADMIN_PREFIX)
        if metered:
            node.meter.record_received(wire.message_size(frame.body))
        try:
            handler = node.handlers[method]
        except KeyError:
            refusal = EcashError(f"node {node.identity.name!r} serves no {method!r}")
            self._respond(frame, method, metered, started, refusal)
            return
        outcome: Any
        try:
            # Handlers run the synchronous protocol core (journal writes
            # included) on the loop by design: one daemon serves one party,
            # and the reproduction depends on strictly ordered handling.
            outcome = handler(payload)  # lint: ignore[async-safety]
            if isinstance(outcome, Generator):
                # Its first step runs here, in arrival order; a step it
                # yields (a nested call) is awaited by a task.
                step = outcome.send(None)
                node._spawn(self._resume(frame, method, metered, started, outcome, step))
                return
        except StopIteration as stop:
            outcome = stop.value
        except Exception as error:
            # Not swallowed: a handler bug crosses the wire as a typed
            # error frame and raises on the caller.
            outcome = error
        if isinstance(outcome, Awaitable):
            node._spawn(self._resume(frame, method, metered, started, outcome))
            return
        self._respond(frame, method, metered, started, outcome)

    async def _resume(
        self,
        frame: Frame,
        method: str,
        metered: bool,
        started: float,
        work: Any,
        step: Any = None,
    ) -> None:
        """Finish a waiting handler, then reply: await ``work``, or drive
        the generator ``work`` on from the ``step`` it yielded."""
        outcome: Any
        try:
            if not isinstance(work, Generator):
                outcome = await work
            else:
                while True:
                    try:
                        reply = await step
                    except Exception as error:
                        # Thrown into the handler, as a failed call is.
                        step = work.throw(error)
                    else:
                        step = work.send(reply)
        except StopIteration as stop:
            outcome = stop.value
        except Exception as error:
            outcome = error
        self._respond(frame, method, metered, started, outcome)

    def _respond(
        self, frame: Frame, method: str, metered: bool, started: float, outcome: Any
    ) -> None:
        """Encode, account for and write the reply to ``frame``."""
        node = self.node
        kind = KIND_RESPONSE
        if not isinstance(outcome, BaseException):
            try:
                body = wire.response_body(method, outcome)
            except Exception as error:
                outcome = error
        if isinstance(outcome, BaseException):
            kind = KIND_ERROR
            body = wire.error_body(outcome)
            if not isinstance(outcome, EcashError) and method in node.handlers:
                obs.counter_inc("daemon_handler_errors_total", method=method)
        if metered:
            node.meter.record_sent(wire.message_size(body))
            node.rpc_log.append(
                {
                    "method": method,
                    "request_bytes": wire.message_size(frame.body),
                    "response_bytes": wire.message_size(body),
                    "kind": "error" if kind == KIND_ERROR else "response",
                }
            )
        elapsed = time.perf_counter() - started
        count, seconds = node.handler_time.get(method, (0, 0.0))
        node.handler_time[method] = (count + 1, seconds + elapsed)
        obs.observe("daemon_rpc_seconds", elapsed, method=method)
        obs.counter_inc(
            "daemon_rpc_total",
            method=method,
            kind="error" if kind == KIND_ERROR else "response",
        )
        self.transport.write(
            encode_frame(Frame(kind=kind, request_id=frame.request_id, body=body))
        )
        if method == "admin/shutdown":
            node._shutdown.set()
        elif isinstance(outcome, node.fatal) and node.failure is None:
            # Fail stop: the party's memory may hold what its disk refused,
            # so nothing more is answered from it in this life.
            node.failure = outcome
            node._shutdown.set()


class _Daemon:
    """One party behind a :class:`DaemonNode`: the lifecycle every role shares.

    A role sets what its :meth:`_attach` and :meth:`_handlers` read before
    calling this constructor.

    Args:
        system: the shared deployment system holding the party.
        identity: this node's name and transport keypair.
        authorized: the deployment roster.
        host: bind address.
        port: bind port.
        state_dir: directory for the durable store. The party is recovered
            from it (snapshot + WAL replay) before the node exists, and
            every mutating RPC is journaled and fsynced *before* its
            response frame is written, because the journal hooks run inside
            the party methods the handlers call. ``None`` keeps the daemon
            memory-only; it never imports the store. The store is one
            shard: one WAL and one snapshot, replayed into memory on open.
            A handler that raises a :class:`~repro.store.StoreError` stops
            the daemon after its error frame is written; the next life
            recovers only what the disk holds.
    """

    transport: SocketTransport | None = None

    def __init__(
        self,
        system: EcashSystem,
        identity: NodeIdentity,
        authorized: Mapping[str, int],
        host: str,
        port: int,
        state_dir: str | None = None,
    ) -> None:
        self.system = system
        self.clock = DaemonClock()
        self.store: Store | None = None
        self.recovery: RecoveryStats | None = None
        fatal: tuple[type[Exception], ...] = ()
        if state_dir is not None:
            from repro.store import Store, StoreError

            self.store = Store(state_dir, backend="memory", shards=1)
            self.recovery = self._attach(self.store)
            fatal = (StoreError,)
        self.node = DaemonNode(
            identity=identity,
            authorized=authorized,
            host=host,
            port=port,
            handlers=self._handlers(),
            clock=self.clock,
            transport=self.transport,
            recovery=self.recovery,
            fatal=fatal,
        )

    def _attach(self, store: Store) -> RecoveryStats:
        """Recover this role's party from ``store`` and journal it there."""
        raise NotImplementedError

    def _handlers(self) -> dict[str, registry.Handler]:
        """This role's protocol dispatch table."""
        raise NotImplementedError

    def close_store(self) -> None:
        """Flush and release the durable store (no-op when memory-only); a
        failed store is only released."""
        if self.store is not None:
            self.store.close()
            self.store = None


class BrokerDaemon(_Daemon):
    """The broker party served over the daemon transport."""

    def _attach(self, store: Store) -> RecoveryStats:
        from repro.core.persistence import attach_broker_store

        return attach_broker_store(self.system.broker, store)

    def _handlers(self) -> dict[str, registry.Handler]:
        return registry.broker_dispatch(self.system.broker, self.clock.now)


class WitnessDaemon(_Daemon):
    """One merchant's witness service served over the daemon transport."""

    def __init__(
        self,
        system: EcashSystem,
        merchant_id: str,
        identity: NodeIdentity,
        authorized: Mapping[str, int],
        host: str,
        port: int,
        *,
        state_dir: str | None = None,
    ) -> None:
        self.witness = system.witness(merchant_id)
        super().__init__(system, identity, authorized, host, port, state_dir)

    def _attach(self, store: Store) -> RecoveryStats:
        from repro.core.persistence import attach_witness_store

        return attach_witness_store(self.witness, store)

    def _handlers(self) -> dict[str, registry.Handler]:
        return registry.witness_dispatch(self.witness, self.clock.now)


class MerchantDaemon(WitnessDaemon):
    """A storefront (with its co-located witness) over the daemon transport.

    As in the paper — and the sim — the storefront and witness run
    together: the dispatch table carries both (a ``state_dir`` holds the
    witness's state), and the ``pay`` handler's nested ``witness/sign``
    call travels over this daemon's outbound transport to whichever
    daemon serves the coin's witness — written to the socket when the
    handler *calls* its ``rpc`` hook, before the
    storefront's own checks, so the two verifications overlap. The
    control-plane ``admin/deposit`` drives the shared batched deposit flow
    to the broker (one ``deposit/batch`` per 32 pending transcripts, the
    next one written while the broker verifies the current one), so
    settlement bytes land on this node's meter exactly as the sim's
    batch deposit process charges its merchant node.
    """

    transport: SocketTransport

    def __init__(
        self,
        system: EcashSystem,
        merchant_id: str,
        identity: NodeIdentity,
        authorized: Mapping[str, int],
        host: str,
        port: int,
        netmap: Mapping[str, tuple[str, int]],
        broker_id: str = "broker",
        *,
        state_dir: str | None = None,
    ) -> None:
        self.transport = SocketTransport(identity, authorized, netmap)
        self.merchant_id = merchant_id
        self._broker_id = broker_id
        super().__init__(
            system, merchant_id, identity, authorized, host, port, state_dir=state_dir
        )

    def _handlers(self) -> dict[str, registry.Handler]:
        def relay(
            destination: str, method: str, payload: dict[str, Any]
        ) -> asyncio.Future[dict[str, Any]]:
            return self.transport.begin_call(destination, method, payload)

        return {
            **super()._handlers(),
            **registry.merchant_dispatch(
                self.system.merchant(self.merchant_id), self.merchant_id, self.clock.now, relay
            ),
            "admin/deposit": self._admin_deposit,
        }

    async def _admin_deposit(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Drive the batched deposit flow to the broker; returns indexed outcomes."""
        del payload
        flow = registry.batch_deposit_flow(
            self.system.merchant(self.merchant_id), self.merchant_id, self._broker_id
        )
        results = await self.transport.run_flow(self.merchant_id, flow)
        out: dict[str, Any] = {"count": len(results)}
        for index, result in enumerate(results):
            out[f"r{index}"] = result
        return out


def build_daemon(
    directory: str,
    name: str,
    host: str | None = None,
    port: int | None = None,
    state_dir: str | None = None,
) -> BrokerDaemon | WitnessDaemon | MerchantDaemon:
    """Assemble the daemon serving ``name`` from a deployment directory.

    Loads the netmap and keys, rebuilds the shared system from the
    deployment seed, and wraps the role the netmap assigns to ``name``.
    ``state_dir`` makes the role's party durable (a storefront's is its
    co-located witness) — existing state under it is recovered before
    the daemon binds its socket.

    Raises:
        KeyError: the netmap has no entry for ``name``.
    """
    from repro.daemon.config import load_config
    from repro.daemon.keys import load_authorized, load_identity

    config = load_config(directory)
    address = config.nodes[name]
    identity = load_identity(directory, name)
    authorized = load_authorized(directory)
    system = config.build_system()
    bind_host = host if host is not None else address.host
    bind_port = port if port is not None else address.port
    if address.role == "broker":
        return BrokerDaemon(
            system, identity, authorized, bind_host, bind_port, state_dir=state_dir
        )
    if address.role == "witness":
        return WitnessDaemon(
            system, name, identity, authorized, bind_host, bind_port, state_dir=state_dir
        )
    return MerchantDaemon(
        system, name, identity, authorized, bind_host, bind_port, netmap=config.netmap(),
        state_dir=state_dir,
    )


async def serve(
    directory: str,
    name: str,
    host: str | None = None,
    port: int | None = None,
    state_dir: str | None = None,
) -> int:
    """Run one daemon until ``admin/shutdown`` — the ``serve`` CLI body.

    Returns:
        The exit code: 0 after a shutdown, 1 when a store failure stopped
        the daemon (its error is printed on stderr).
    """
    # Store open/recovery happens once, before the listener accepts its
    # first connection; nothing concurrent exists yet to starve.
    daemon = build_daemon(directory, name, host, port, state_dir)  # lint: ignore[async-safety]
    if daemon.recovery is not None:
        stats = daemon.recovery
        print(
            f"{name} recovered state: {stats.snapshot_records} snapshot record(s), "
            f"{stats.replayed_records} journal record(s) replayed, "
            f"{stats.truncated_bytes} torn byte(s) truncated, "
            f"{stats.discarded_records} uncommitted record(s) discarded, "
            f"replay {stats.replay_ms:.1f} ms",
            flush=True,
        )
    await daemon.node.start()
    print(
        f"{name} listening on {daemon.node.host}:{daemon.node.port}",
        flush=True,
    )
    try:
        await daemon.node.serve_until_shutdown()
    except daemon.node.fatal as error:
        print(f"{name} stopped: {type(error).__name__}: {error}", file=sys.stderr, flush=True)
        return 1
    finally:
        daemon.close_store()
    return 0


__all__ = [
    "BrokerDaemon",
    "DaemonClock",
    "DaemonNode",
    "MerchantDaemon",
    "WitnessDaemon",
    "build_daemon",
    "serve",
]
