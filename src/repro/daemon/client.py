"""Client side of the daemon RPC layer.

:class:`PeerConnection` multiplexes concurrent requests over one
authenticated TCP connection (8-byte request ids pair responses with
callers), applies per-call timeouts, and retries *connection
establishment* with bounded, seeded backoff. Completed protocol calls
are never retried automatically — a payment that timed out may have
been applied remotely, and the protocol layer (coin renewal, deposit
reconciliation) owns that recovery, exactly as in the sim.

There is one send path, :meth:`PeerConnection.begin`: it writes the
request frame synchronously and returns the task that resolves with the
reply, so a caller may compute between the send and the wait
(:meth:`PeerConnection.request` is ``await begin(...)``). A connection
whose receive loop has ended is *lost*: its pending calls fail with
:class:`~repro.core.exceptions.ServiceUnavailableError` and
:class:`SocketTransport` replaces it on the next call.

:class:`SocketTransport` is the :class:`repro.net.registry.Transport`
implementation for real sockets: it drives the shared ``*_flow``
generators, performing each yielded
:class:`~repro.net.registry.RemoteCall` against the daemon that serves
the destination node, and mirrors the sim's
:class:`~repro.net.transport.TrafficMeter` byte accounting on the
client's side of every exchange. A call that carries a ``meanwhile``
hint is sent, the hint is run, and only then is the reply awaited — the
client computes while the daemon does.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import random
import time
from typing import Any, Callable, Mapping

from repro import obs
from repro.core.exceptions import ServiceUnavailableError
from repro.faults.recovery import BackoffPolicy
from repro.net.registry import Flow, RemoteCall
from repro.net.transport import TrafficMeter
from repro.daemon import wire
from repro.daemon.auth import client_handshake
from repro.daemon.framing import (
    Frame,
    FrameError,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
    read_frame,
)
from repro.daemon.keys import NodeIdentity

#: Default per-call timeout, matching the sim's RPC deadline.
DEFAULT_CALL_TIMEOUT = 15.0

#: Connection-establishment attempts (the first try plus retries).
DEFAULT_CONNECT_ATTEMPTS = 5

#: Methods under this prefix are control-plane traffic: never metered,
#: so protocol byte accounting matches the sim's exactly.
ADMIN_PREFIX = "admin/"


def _clock_from(first: float) -> Callable[[], float]:
    """A span clock whose first reading is ``first``.

    A call's ``daemon.call`` span is opened by its reply task, which
    first runs when the caller next yields to the loop; the call began
    at the write.
    """
    readings = itertools.chain((first,), iter(time.perf_counter, None))
    return lambda: next(readings)


class PeerConnection:
    """One authenticated connection to a daemon, multiplexing requests."""

    def __init__(
        self,
        peer_name: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        meter: TrafficMeter,
    ) -> None:
        self.peer_name = peer_name
        self._reader = reader
        self._writer = writer
        self._meter = meter
        self._next_id = 1
        self._pending: dict[int, asyncio.Future[Frame]] = {}
        self._receiver = asyncio.create_task(self._receive_loop())
        self._closed = False

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        identity: NodeIdentity,
        peer_name: str,
        authorized: Mapping[str, int],
        meter: TrafficMeter,
        rng: random.Random | None = None,
        backoff: BackoffPolicy | None = None,
        attempts: int = DEFAULT_CONNECT_ATTEMPTS,
    ) -> "PeerConnection":
        """Connect, authenticate, and return a ready connection.

        Connection refusals (a daemon still starting up) are retried
        ``attempts`` times with seeded exponential backoff; handshake
        failures are not retried — a peer that rejects our key now will
        reject it again.

        Raises:
            ServiceUnavailableError: the peer stayed unreachable.
            HandshakeError: mutual authentication failed.
        """
        handshake_rng = rng if rng is not None else random.Random(os.urandom(16))
        policy = backoff if backoff is not None else BackoffPolicy(base=0.05, max_delay=2.0)
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError as error:
                last_error = error
                await asyncio.sleep(policy.delay(attempt, handshake_rng))
                continue
            try:
                await client_handshake(
                    reader, writer, identity, peer_name, authorized, handshake_rng
                )
            except (FrameError, ConnectionError) as error:
                # The daemon may have accepted the TCP connection while
                # still wiring up; treat a dropped handshake as not-yet-up.
                writer.close()
                last_error = error
                await asyncio.sleep(policy.delay(attempt, handshake_rng))
                continue
            return cls(peer_name, reader, writer, meter)
        raise ServiceUnavailableError(
            f"could not reach {peer_name!r} at {host}:{port}: {last_error}"
        )

    @property
    def lost(self) -> bool:
        """True once the receive loop has ended: no reply can arrive."""
        return self._receiver.done()

    async def _receive_loop(self) -> None:
        reason = "closed"
        try:
            while True:
                frame = await read_frame(self._reader)
                waiter = self._pending.pop(frame.request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(frame)
        except (FrameError, OSError) as error:
            reason = str(error)
        finally:
            # However the loop ends — peer gone, stream broken, close() —
            # nothing will answer the calls still waiting.
            for waiter in self._pending.values():
                if not waiter.done():
                    waiter.set_exception(
                        ServiceUnavailableError(
                            f"connection to {self.peer_name!r} lost: {reason}"
                        )
                    )
            self._pending.clear()

    def begin(
        self,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
        overlapped: bool = False,
    ) -> asyncio.Task[dict[str, Any]]:
        """Put one request on the wire; the returned task is its reply.

        Synchronous, so the caller can go on computing while the peer
        works: ``StreamWriter.write`` hands the frame to the socket at
        once when nothing is queued before it. Awaiting the task waits
        for the (nested, text-valued) reply payload; cancelling it
        abandons the call — a reply that still arrives is dropped.
        ``overlapped`` marks the call's ``daemon.call`` span: the caller
        is about to compute before it waits.

        The task raises:
            EcashError subclass: the remote handler refused (rebuilt from
                the typed error frame).
            ServiceUnavailableError: timeout or connection loss.
        """
        body = wire.request_body(method, payload)
        request_id = self._next_id
        self._next_id += 1
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future[Frame] = loop.create_future()
        metered = not method.startswith(ADMIN_PREFIX)
        if self.lost:
            waiter.set_exception(
                ServiceUnavailableError(f"connection to {self.peer_name!r} lost")
            )
        else:
            self._pending[request_id] = waiter
            self._writer.write(
                encode_frame(Frame(kind=KIND_REQUEST, request_id=request_id, body=body))
            )
            if metered:
                self._meter.record_sent(wire.message_size(body))
        deadline = timeout if timeout is not None else DEFAULT_CALL_TIMEOUT
        timer = loop.call_later(deadline, self._time_out, waiter, method, deadline)
        reply = asyncio.create_task(
            self._reply(waiter, method, metered, time.perf_counter(), overlapped)
        )
        reply.add_done_callback(
            functools.partial(self._finish, request_id, waiter, timer)
        )
        return reply

    async def request(
        self,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Perform one RPC: :meth:`begin` it, then wait for its reply."""
        return await self.begin(method, payload, timeout)

    async def _reply(
        self,
        waiter: asyncio.Future[Frame],
        method: str,
        metered: bool,
        sent_at: float,
        overlapped: bool,
    ) -> dict[str, Any]:
        with obs.span(
            "daemon.call",
            clock=_clock_from(sent_at),
            method=method,
            destination=self.peer_name,
        ) as span:
            if overlapped:
                span.set("overlapped", 1)
            try:
                await self._writer.drain()
            except ConnectionError as error:
                raise ServiceUnavailableError(
                    f"connection to {self.peer_name!r} lost: {error}"
                ) from error
            frame = await waiter
            if metered:
                self._meter.record_received(wire.message_size(frame.body))
            if frame.kind == KIND_ERROR:
                raise wire.parse_error(frame.body)
            if frame.kind != KIND_RESPONSE:
                raise ServiceUnavailableError(
                    f"peer {self.peer_name!r} sent frame kind {frame.kind} in response"
                )
            return wire.parse_response(frame.body)

    def _time_out(
        self, waiter: asyncio.Future[Frame], method: str, deadline: float
    ) -> None:
        if not waiter.done():
            waiter.set_exception(
                ServiceUnavailableError(
                    f"call {method!r} to {self.peer_name!r} timed out after {deadline}s"
                )
            )

    def _finish(
        self,
        request_id: int,
        waiter: asyncio.Future[Frame],
        timer: asyncio.TimerHandle,
        reply: asyncio.Task[dict[str, Any]],
    ) -> None:
        """Done-callback of every reply task, a cancelled one included."""
        timer.cancel()
        self._pending.pop(request_id, None)
        if not waiter.cancel() and not waiter.cancelled():
            # Failed under a task that was cancelled before it looked:
            # mark the error retrieved, an abandoned call logs nothing.
            waiter.exception()

    async def close(self) -> None:
        """Tear the connection down and cancel the receive loop."""
        if self._closed:
            return
        self._closed = True
        self._receiver.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SocketTransport:
    """Drive the shared protocol flows over authenticated sockets.

    The real-network counterpart of the sim deployment's ``run_flow``:
    connections to the daemons named in ``netmap`` are opened lazily and
    reused — one per destination, replaced once lost — and every
    non-admin exchange is recorded on :attr:`meter` with the same
    ``body + HTTP framing`` arithmetic the sim charges.
    """

    def __init__(
        self,
        identity: NodeIdentity,
        authorized: Mapping[str, int],
        netmap: Mapping[str, tuple[str, int]],
        connect_attempts: int = DEFAULT_CONNECT_ATTEMPTS,
        connect_backoff: BackoffPolicy | None = None,
    ) -> None:
        self.identity = identity
        self.authorized = dict(authorized)
        self.netmap = {name: (host, port) for name, (host, port) in netmap.items()}
        self.connect_attempts = connect_attempts
        self.connect_backoff = connect_backoff
        #: Client-side byte accounting, comparable to the sim node's meter.
        self.meter = TrafficMeter()
        self._connections: dict[str, PeerConnection] = {}
        #: Per destination, held while a connection to it is being opened.
        self._opening: dict[str, asyncio.Lock] = {}

    def _live(self, destination: str) -> PeerConnection | None:
        existing = self._connections.get(destination)
        if existing is not None and not existing.lost:
            return existing
        return None

    async def connection(self, destination: str) -> PeerConnection:
        """The connection to ``destination``, opened on first use.

        One that was lost (its daemon restarted) is replaced; concurrent
        callers wait for the one open in progress instead of racing it.
        """
        live = self._live(destination)
        if live is not None:
            return live
        try:
            host, port = self.netmap[destination]
        except KeyError:
            raise ServiceUnavailableError(
                f"no daemon serves node {destination!r}"
            ) from None
        async with self._opening.setdefault(destination, asyncio.Lock()):
            live = self._live(destination)
            if live is not None:
                return live  # a concurrent caller opened it while we waited
            lost = self._connections.pop(destination, None)
            if lost is not None:
                await lost.close()
            connection = await PeerConnection.open(
                host,
                port,
                self.identity,
                destination,
                self.authorized,
                self.meter,
                backoff=self.connect_backoff,
                attempts=self.connect_attempts,
            )
            self._connections[destination] = connection
            return connection

    def begin_call(
        self,
        destination: str,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
    ) -> asyncio.Task[dict[str, Any]]:
        """Start one RPC to ``destination``; the returned task is its reply.

        Over an open connection the request is on the wire before this
        returns (:meth:`PeerConnection.begin`); with none open yet, the
        task opens one and then sends.
        """
        live = self._live(destination)
        if live is not None:
            return live.begin(method, payload, timeout)
        return asyncio.create_task(self.call(destination, method, payload, timeout))

    async def call(
        self,
        destination: str,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """One RPC to the daemon serving ``destination``."""
        connection = await self.connection(destination)
        return await connection.begin(method, payload, timeout)

    async def run_flow(self, source: str, flow: Flow) -> Any:
        """Execute a protocol flow over the sockets (Transport impl).

        ``source`` names the acting party for interface symmetry with the
        sim; over sockets the acting party is always this transport's own
        identity. A call with a :attr:`~repro.net.registry.RemoteCall.meanwhile`
        hint goes through :meth:`_call_overlapped`.
        """
        del source  # the socket transport *is* the source node
        reply: Any = None
        failure: BaseException | None = None
        while True:
            try:
                if failure is not None:
                    error, failure = failure, None
                    call = flow.throw(error)
                else:
                    call = flow.send(reply)
            except StopIteration as stop:
                return stop.value
            if not isinstance(call, RemoteCall):
                raise TypeError(
                    f"flow yielded {type(call).__name__}, expected RemoteCall"
                )
            try:
                if call.meanwhile is None:
                    reply = await self.call(
                        call.destination, call.method, call.payload, call.timeout
                    )
                else:
                    reply = await self._call_overlapped(call, call.meanwhile)
            except Exception as error:
                failure = error
                reply = None

    async def _call_overlapped(
        self, call: RemoteCall, meanwhile: Callable[[], Any]
    ) -> dict[str, Any]:
        """Send ``call``, run its ``meanwhile``, then wait for the reply.

        The frame is with the socket before the hint starts (the
        connection is opened first if need be), so the daemon works on
        the request while this process computes. A hint that raises
        abandons the call: the pending reply is cancelled (a late one is
        dropped) and the error goes to the flow.
        """
        connection = await self.connection(call.destination)
        pending = connection.begin(
            call.method, call.payload, call.timeout, overlapped=True
        )
        try:
            meanwhile()
        except BaseException:
            pending.cancel()
            raise
        obs.counter_inc("transport_overlapped_calls_total", method=call.method)
        return await pending

    async def close(self) -> None:
        """Close every open connection."""
        for connection in self._connections.values():
            await connection.close()
        self._connections.clear()


__all__ = [
    "ADMIN_PREFIX",
    "DEFAULT_CALL_TIMEOUT",
    "DEFAULT_CONNECT_ATTEMPTS",
    "PeerConnection",
    "SocketTransport",
]
