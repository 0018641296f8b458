"""RPC-layer tests: a real DaemonNode over loopback TCP."""

import asyncio

import pytest

from repro.core.exceptions import (
    EcashError,
    InvalidPaymentError,
    ServiceUnavailableError,
)
from repro.daemon.client import PeerConnection
from repro.daemon.keys import NodeIdentity, identity_keypair
from repro.daemon.service import DaemonClock, DaemonNode
from repro.daemon import wire
from repro.net.transport import TrafficMeter


def identity(name: str) -> NodeIdentity:
    return NodeIdentity(name=name, keypair=identity_keypair(name, 5))


class Loopback:
    """A DaemonNode plus an authenticated client connection."""

    def __init__(self, handlers):
        self.server_id = identity("server")
        self.client_id = identity("client")
        self.roster = {
            "server": self.server_id.public,
            "client": self.client_id.public,
        }
        self.handlers = handlers
        self.node: DaemonNode | None = None
        self.connection: PeerConnection | None = None
        self.meter = TrafficMeter()

    async def __aenter__(self):
        self.node = DaemonNode(
            identity=self.server_id,
            authorized=self.roster,
            host="127.0.0.1",
            port=0,
            handlers=self.handlers,
            clock=DaemonClock(),
        )
        await self.node.start()
        self.connection = await PeerConnection.open(
            "127.0.0.1",
            self.node.port,
            self.client_id,
            "server",
            self.roster,
            self.meter,
        )
        return self

    async def __aexit__(self, *exc):
        await self.connection.close()
        await self.node.stop()


def test_request_response_roundtrip():
    async def scenario():
        def echo(payload):
            return {"text": str(payload.get("text", ""))}

        async with Loopback({"echo": echo}) as loop:
            reply = await loop.connection.request("echo", {"text": "hello"})
            assert reply == {"text": "hello"}

    asyncio.run(scenario())


def test_interleaved_requests_multiplex_one_connection():
    async def scenario():
        gate = asyncio.Event()

        async def wait(payload):
            await gate.wait()
            return {"order": "second"}

        async def release(payload):
            gate.set()
            return {"order": "first"}

        async with Loopback({"wait": wait, "release": release}) as loop:
            # If requests were served sequentially, "wait" would hold the
            # connection and "release" could never unblock it.
            first, second = await asyncio.gather(
                loop.connection.request("wait", {}),
                loop.connection.request("release", {}),
            )
            assert first == {"order": "second"}
            assert second == {"order": "first"}

    asyncio.run(scenario())


def test_per_call_timeout():
    async def scenario():
        async def stall(payload):
            await asyncio.sleep(30)
            return {}

        async with Loopback({"stall": stall}) as loop:
            with pytest.raises(ServiceUnavailableError, match="timed out"):
                await loop.connection.request("stall", {}, timeout=0.2)

    asyncio.run(scenario())


def test_typed_error_propagates():
    async def scenario():
        def refuse(payload):
            raise InvalidPaymentError("nonce mismatch")

        async with Loopback({"refuse": refuse}) as loop:
            with pytest.raises(InvalidPaymentError, match="nonce mismatch"):
                await loop.connection.request("refuse", {})

    asyncio.run(scenario())


def test_unknown_method_is_typed_refusal():
    async def scenario():
        async with Loopback({}) as loop:
            with pytest.raises(EcashError, match="serves no"):
                await loop.connection.request("nope", {})

    asyncio.run(scenario())


def test_byte_accounting_mirrors_sim_arithmetic():
    async def scenario():
        def echo(payload):
            return {"text": "y"}

        async with Loopback({"echo": echo}) as loop:
            await loop.connection.request("echo", {"text": "x"})
            request = wire.request_body("echo", {"text": "x"})
            response = wire.response_body("echo", {"text": "y"})
            # Client sent one request, received one response; the server
            # recorded the mirror image; sizes are body + HTTP framing.
            assert loop.meter.snapshot() == (
                wire.message_size(request),
                wire.message_size(response),
            )
            assert loop.node.meter.snapshot() == (
                wire.message_size(response),
                wire.message_size(request),
            )
            assert list(loop.node.rpc_log) == [
                {
                    "method": "echo",
                    "request_bytes": wire.message_size(request),
                    "response_bytes": wire.message_size(response),
                    "kind": "response",
                }
            ]

    asyncio.run(scenario())


def test_admin_calls_are_unmetered():
    async def scenario():
        async with Loopback({}) as loop:
            reply = await loop.connection.request("admin/ping", {})
            assert reply["name"] == "server"
            assert loop.meter.snapshot() == (0, 0)
            assert loop.node.meter.snapshot() == (0, 0)
            assert list(loop.node.rpc_log) == []

    asyncio.run(scenario())


def test_admin_clock_pins_protocol_time():
    async def scenario():
        clock_reads = []

        def when(payload):
            clock_reads.append(loop.node.clock.now())
            return {"count": len(clock_reads)}

        async with Loopback({"when": when}) as loop:
            await loop.connection.request("admin/clock", {"now": 12345})
            await loop.connection.request("when", {})
            assert clock_reads == [12345]

    asyncio.run(scenario())


def test_unprovisioned_client_cannot_connect():
    async def scenario():
        async with Loopback({}) as loop:
            outsider = identity("mallory")
            bad_roster = {"server": loop.server_id.public, "mallory": outsider.public}
            with pytest.raises(ServiceUnavailableError):
                await PeerConnection.open(
                    "127.0.0.1",
                    loop.node.port,
                    outsider,
                    "server",
                    bad_roster,
                    TrafficMeter(),
                    attempts=2,
                )

    asyncio.run(scenario())
