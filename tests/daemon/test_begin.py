"""``PeerConnection.begin`` and the transport's connection bookkeeping.

One send path (``request`` is ``begin`` awaited), a cancelled call that
leaves nothing behind, one connection per destination however many first
calls race, and a lost connection replaced on the next call.
"""

import asyncio

import pytest

from repro.core.exceptions import ServiceUnavailableError
from repro.daemon import wire
from repro.daemon.client import PeerConnection, SocketTransport
from repro.daemon.framing import KIND_REQUEST, Frame, encode_frame
from repro.daemon.service import DaemonClock, DaemonNode
from repro.net.registry import as_int
from tests.daemon.test_rpc import Loopback, identity


def _echo(payload):
    return {"text": str(payload.get("text", ""))}


def _recording(connection: PeerConnection) -> list[bytes]:
    """Every chunk the connection hands its socket from now on."""
    written: list[bytes] = []
    write = connection.transport.write

    def recording_write(data: bytes) -> None:
        written.append(bytes(data))
        write(data)

    connection.transport.write = recording_write
    return written


def test_begin_has_written_the_frame_when_it_returns():
    async def scenario():
        async with Loopback({"echo": _echo}) as loop:
            written = _recording(loop.connection)
            reply = loop.connection.begin("echo", {"text": "early"})
            # No await yet: the request is already with the socket.
            body = wire.request_body("echo", {"text": "early"})
            assert written == [encode_frame(Frame(KIND_REQUEST, 1, body))]
            assert loop.meter.snapshot() == (wire.message_size(body), 0)
            assert not reply.done()
            assert await reply == {"text": "early"}

    asyncio.run(scenario())


def test_request_and_begin_are_one_send_path():
    async def through(send):
        async with Loopback({"echo": _echo}) as loop:
            written = _recording(loop.connection)
            replies = [
                await send(loop.connection, "echo", {"text": "same"}),
                await send(loop.connection, "admin/ping", {}),
            ]
            meter = loop.meter
            return (
                written,
                replies,
                meter.snapshot() + (meter.messages_sent, meter.messages_received),
                list(loop.node.rpc_log),
            )

    async def by_request(connection, method, payload):
        return await connection.request(method, payload)

    async def by_begin(connection, method, payload):
        return await connection.begin(method, payload)

    assert asyncio.run(through(by_request)) == asyncio.run(through(by_begin))


def test_a_cancelled_call_leaves_nothing_behind():
    async def scenario():
        release = asyncio.Event()

        async def slow(payload):
            await release.wait()
            return {"late": 1}

        async with Loopback({"slow": slow, "echo": _echo}) as loop:
            connection = loop.connection
            abandoned = connection.begin("slow", {})
            abandoned.cancel()  # before its task ever ran, as the pay handler does
            with pytest.raises(asyncio.CancelledError):
                await abandoned
            await asyncio.sleep(0)
            assert connection._pending == {}
            received = loop.meter.received_bytes
            release.set()  # the reply to the abandoned call arrives — and is dropped
            assert await connection.request("echo", {"text": "next"}) == {"text": "next"}
            assert loop.meter.messages_received == 1
            assert loop.meter.received_bytes > received
            assert connection._pending == {}

    asyncio.run(scenario())


class _Server:
    """A DaemonNode on a fixed port that can be stopped and started again."""

    def __init__(self) -> None:
        self.identity = identity("server")
        self.client = identity("client")
        self.roster = {"server": self.identity.public, "client": self.client.public}
        self.port = 0
        self.node: DaemonNode | None = None

    async def start(self) -> DaemonNode:
        self.node = DaemonNode(
            identity=self.identity,
            authorized=self.roster,
            host="127.0.0.1",
            port=self.port,
            handlers={"echo": _echo},
            clock=DaemonClock(),
        )
        await self.node.start()
        self.port = self.node.port
        return self.node

    def transport(self) -> SocketTransport:
        return SocketTransport(
            self.client, self.roster, {"server": ("127.0.0.1", self.port)}
        )


def test_concurrent_first_calls_share_one_connection():
    async def scenario():
        server = _Server()
        node = await server.start()
        transport = server.transport()
        try:
            replies = await asyncio.gather(
                *(transport.call("server", "echo", {"text": text}) for text in "abc")
            )
            assert [reply["text"] for reply in replies] == ["a", "b", "c"]
            assert len(node._connections) == 1
        finally:
            await transport.close()
            await node.stop()

    asyncio.run(scenario())


def test_begin_call_without_a_connection_opens_the_shared_one():
    async def scenario():
        server = _Server()
        node = await server.start()
        transport = server.transport()
        try:
            first = transport.begin_call("server", "echo", {"text": "a"})
            second = transport.begin_call("server", "echo", {"text": "b"})
            assert [(await first)["text"], (await second)["text"]] == ["a", "b"]
            assert len(node._connections) == 1
            # With the connection open the frame goes out at the call.
            written = _recording(await transport.connection("server"))
            third = transport.begin_call("server", "echo", {"text": "c"})
            assert len(written) == 1
            assert (await third)["text"] == "c"
        finally:
            await transport.close()
            await node.stop()

    asyncio.run(scenario())


def test_a_lost_connection_fails_its_calls_and_is_replaced():
    async def scenario():
        server = _Server()
        first = await server.start()
        transport = server.transport()
        try:
            assert (await transport.call("server", "echo", {"text": "1"}))["text"] == "1"
            held = await transport.connection("server")
            await first.stop()  # the daemon goes away under an open connection
            await asyncio.sleep(0.05)
            second = await server.start()  # ... and comes back on the same port
            reply = await transport.call("server", "echo", {"text": "2"}, timeout=2.0)
            assert reply["text"] == "2"
            assert await transport.connection("server") is not held
            assert len(second._connections) == 1

            # Whoever still holds the old connection is told at once.
            assert held.lost
            with pytest.raises(ServiceUnavailableError, match="lost"):
                await held.request("echo", {"text": "into the void"}, timeout=2.0)
            await second.stop()
        finally:
            await transport.close()

    asyncio.run(scenario())


def test_admin_stats_exports_handler_time_per_method():
    async def scenario():
        async def nap(payload):
            await asyncio.sleep(0.02)
            return {}

        async with Loopback({"nap": nap, "echo": _echo}) as loop:
            for _ in range(3):
                await loop.connection.request("nap", {})
            await loop.connection.request("echo", {"text": "x"})
            stats = await loop.connection.request("admin/stats", {})
            rows = {}
            index = 0
            while f"t{index}" in stats:
                row = stats[f"t{index}"]
                rows[row["method"]] = (as_int(row["count"]), float(row["seconds"]))
                index += 1
            assert rows["nap"][0] == 3 and rows["echo"][0] == 1
            assert 0.06 <= rows["nap"][1] < 1.0
            assert rows["echo"][1] < rows["nap"][1]

    asyncio.run(scenario())
