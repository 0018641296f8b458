"""Client side of the daemon RPC layer.

:class:`PeerConnection` multiplexes concurrent requests over one
authenticated TCP connection (8-byte request ids pair responses with
callers), applies per-call timeouts, and retries *connection
establishment* with bounded, seeded backoff. Completed protocol calls
are never retried automatically — a payment that timed out may have
been applied remotely, and the protocol layer (coin renewal, deposit
reconciliation) owns that recovery, exactly as in the sim.

There is one send path, :meth:`PeerConnection.begin`: it writes the
request frame synchronously and returns the future its reply frame
resolves, so a caller may compute between the send and the wait
(:meth:`PeerConnection.request` is ``await begin(...)``). The reply is
metered, parsed and handed over inside the callback that read it; no
task stands between the socket and the caller. A connection that has
ended is *lost*: its pending calls fail with
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
client computes while the daemon does. A call that carries an ``ahead``
hint is sent with the call it names right behind it, so the daemon finds
the next request waiting when it answers this one.
"""

from __future__ import annotations

import asyncio
import functools
import os
import random
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
    FrameProtocol,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
)
from repro.daemon.keys import NodeIdentity

#: Default per-call timeout, matching the sim's RPC deadline.
DEFAULT_CALL_TIMEOUT = 15.0

#: Connection-establishment attempts (the first try plus retries).
DEFAULT_CONNECT_ATTEMPTS = 5

#: Methods under this prefix are control-plane traffic: never metered,
#: so protocol byte accounting matches the sim's exactly.
ADMIN_PREFIX = "admin/"


class _Call(asyncio.Future[dict[str, Any]]):
    """One request in flight, as the caller holds it.

    Its reply frame resolves it (metered first), a timeout or the loss
    of the connection fails it, and cancelling it forgets the request:
    a reply that still arrives is dropped unmetered.
    """

    def __init__(
        self, connection: "PeerConnection", request_id: int, method: str, metered: bool
    ) -> None:
        super().__init__(loop=connection.loop)
        self.connection = connection
        self.request_id = request_id
        self.method = method
        self.metered = metered
        self.timer: asyncio.TimerHandle | None = None
        self.span: obs.ActiveSpan | None = None

    def resolve(self, frame: Frame) -> None:
        """Complete the call from its reply frame."""
        if self.metered:
            self.connection._meter.record_received(wire.message_size(frame.body))
        try:
            if frame.kind == KIND_RESPONSE:
                reply = wire.parse_response(frame.body)
                self._end(None)
                self.set_result(reply)
                return
            if frame.kind == KIND_ERROR:
                refusal: Exception = wire.parse_error(frame.body)
            else:
                refusal = ServiceUnavailableError(
                    f"peer {self.connection.peer_name!r} sent frame kind {frame.kind} in response"
                )
        except ValueError as error:  # a body that does not decode
            refusal = error
        self.fail(refusal)

    def fail(self, error: BaseException) -> None:
        """Fail the call with ``error`` (the caller's await raises it)."""
        self._end(type(error).__name__)
        self.set_exception(error)

    def time_out(self, deadline: float) -> None:
        self.connection._pending.pop(self.request_id, None)
        self.fail(
            ServiceUnavailableError(
                f"call {self.method!r} to {self.connection.peer_name!r} "
                f"timed out after {deadline}s"
            )
        )

    def cancel(self, msg: Any = None) -> bool:
        if not self.done():
            self.connection._pending.pop(self.request_id, None)
            self._end("CancelledError")
        return super().cancel(msg=msg)

    def _end(self, error: str | None) -> None:
        if self.timer is not None:
            self.timer.cancel()
        if self.span is not None:
            self.span.close(error)


class PeerConnection(FrameProtocol):
    """One authenticated connection to a daemon, multiplexing requests."""

    def __init__(self, peer_name: str, meter: TrafficMeter) -> None:
        super().__init__()
        self.peer_name = peer_name
        self._meter = meter
        self._next_id = 1
        self._pending: dict[int, _Call] = {}

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
        loop = asyncio.get_running_loop()
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                _, connection = await loop.create_connection(
                    functools.partial(cls, peer_name, meter), host, port
                )
            except OSError as error:
                last_error = error
                await asyncio.sleep(policy.delay(attempt, handshake_rng))
                continue
            try:
                await client_handshake(
                    connection, identity, peer_name, authorized, handshake_rng
                )
            except FrameError as error:
                # The daemon may have accepted the TCP connection while
                # still wiring up; treat a dropped handshake as not-yet-up.
                connection.transport.close()
                last_error = error
                await asyncio.sleep(policy.delay(attempt, handshake_rng))
                continue
            except BaseException:
                connection.transport.close()
                raise
            connection.start_frames()
            return connection
        raise ServiceUnavailableError(
            f"could not reach {peer_name!r} at {host}:{port}: {last_error}"
        )

    @property
    def lost(self) -> bool:
        """True once the connection has ended: no reply can arrive."""
        return self.failure is not None

    def frame_received(self, frame: Frame) -> None:
        call = self._pending.pop(frame.request_id, None)
        if call is not None:
            call.resolve(frame)
        # Otherwise nobody waits for it (abandoned, timed out, or an id
        # never sent): dropped, unmetered.

    def _lose(self, failure: FrameError) -> None:
        super()._lose(failure)
        # However the connection ended — peer gone, stream broken,
        # close() — nothing will answer the calls still waiting.
        pending, self._pending = self._pending, {}
        for call in pending.values():
            call.fail(
                ServiceUnavailableError(f"connection to {self.peer_name!r} lost: {failure}")
            )

    def begin(
        self,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
        overlapped: bool = False,
    ) -> asyncio.Future[dict[str, Any]]:
        """Put one request on the wire; the returned future is its reply.

        Synchronous, so the caller can go on computing while the peer
        works: the frame is handed to the transport, which sends at once
        when nothing is queued before it. Awaiting the future waits for
        the (nested, text-valued) reply payload; cancelling it abandons
        the call — a reply that still arrives is dropped. ``overlapped``
        marks the call's ``daemon.call`` span: the caller is about to
        compute before it waits.

        The future raises:
            EcashError subclass: the remote handler refused (rebuilt from
                the typed error frame).
            ServiceUnavailableError: timeout or connection loss.
        """
        body = wire.request_body(method, payload)
        request_id = self._next_id
        self._next_id += 1
        call = _Call(self, request_id, method, not method.startswith(ADMIN_PREFIX))
        if self.failure is not None:
            call.set_exception(
                ServiceUnavailableError(f"connection to {self.peer_name!r} lost")
            )
            return call
        if obs.is_enabled():
            span = obs.span("daemon.call", method=method, destination=self.peer_name)
            if overlapped:
                span.set("overlapped", 1)
            call.span = span.open()
        self._pending[request_id] = call
        self.transport.write(
            encode_frame(Frame(kind=KIND_REQUEST, request_id=request_id, body=body))
        )
        if call.metered:
            self._meter.record_sent(wire.message_size(body))
        deadline = timeout if timeout is not None else DEFAULT_CALL_TIMEOUT
        call.timer = self.loop.call_later(deadline, call.time_out, deadline)
        return call

    async def request(
        self,
        method: str,
        payload: dict[str, Any],
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Perform one RPC: :meth:`begin` it, then wait for its reply."""
        return await self.begin(method, payload, timeout)


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
    ) -> asyncio.Future[dict[str, Any]]:
        """Start one RPC to ``destination``; the returned future is its reply.

        Over an open connection the request is on the wire before this
        returns (:meth:`PeerConnection.begin`); with none open yet, a
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
        hint goes through :meth:`_call_overlapped`. A call that names one
        :attr:`~repro.net.registry.RemoteCall.ahead` is sent, then the call
        ahead is sent right behind it on the connection the destination
        has then — both before this reply is read, so they reach the peer
        in the flow's order even on a fresh connection. When the flow
        yields that same call next it gets the pending reply; if it yields
        another, raises or returns first, the call ahead is abandoned (a
        reply that still arrives is dropped, unmetered). At most one call
        is ahead, and a call that went or sends one ahead does not also
        run its ``meanwhile``: ignoring a hint is always correct.
        """
        del source  # the socket transport *is* the source node
        reply: Any = None
        failure: BaseException | None = None
        ahead: tuple[RemoteCall, asyncio.Future[dict[str, Any]]] | None = None
        try:
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
                sent, ahead = _take_ahead(ahead, call), None
                try:
                    if sent is None and call.ahead is None and call.meanwhile is not None:
                        reply = await self._call_overlapped(call, call.meanwhile)
                    else:
                        if sent is None:
                            sent = await self._send(call)
                        if call.ahead is not None:
                            ahead = await self._send_ahead(call.ahead, sent)
                        reply = await sent
                except Exception as error:
                    failure = error
                    reply = None
        finally:
            if ahead is not None:
                _abandon(ahead[1])

    async def _send(self, call: RemoteCall) -> asyncio.Future[dict[str, Any]]:
        """Put ``call`` on the wire; the returned future is its reply."""
        connection = await self.connection(call.destination)
        return connection.begin(call.method, call.payload, call.timeout)

    async def _send_ahead(
        self, ahead: Callable[[], RemoteCall], sent: asyncio.Future[dict[str, Any]]
    ) -> tuple[RemoteCall, asyncio.Future[dict[str, Any]]]:
        """Send the call ``ahead`` names; returns it with its pending reply.

        ``sent`` is the reply of the call that named it: if this send
        fails, that call is abandoned before the error reaches the flow.
        """
        try:
            following = ahead()
            return following, await self._send(following)
        except BaseException:
            _abandon(sent)
            raise

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


def _take_ahead(
    ahead: tuple[RemoteCall, asyncio.Future[dict[str, Any]]] | None, call: RemoteCall
) -> asyncio.Future[dict[str, Any]] | None:
    """The pending reply of ``call`` if it went ahead; any other call ahead
    is abandoned."""
    if ahead is None:
        return None
    following, reply = ahead
    if following is call:
        obs.counter_inc("transport_ahead_calls_total", method=call.method)
        return reply
    _abandon(reply)
    return None


def _abandon(reply: asyncio.Future[dict[str, Any]]) -> None:
    """Forget a call: cancel its reply, or retrieve the one it already has
    so that an error nobody reads is not reported as never retrieved."""
    if not reply.cancel() and not reply.cancelled():
        reply.exception()


__all__ = [
    "ADMIN_PREFIX",
    "DEFAULT_CALL_TIMEOUT",
    "DEFAULT_CONNECT_ATTEMPTS",
    "PeerConnection",
    "SocketTransport",
]
