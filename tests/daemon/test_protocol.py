"""The daemon's per-message path: a request is served inside the callback
that read its frame, a reply resolves its caller's future there too.

What that must keep: arrival order, the meter ahead of the caller, replies
nobody waits for dropped unmetered, every pending call failed on loss, a
malformed header ending the connection on both ends, reading paused
while a peer does not read, ``admin/shutdown`` answered before the daemon
stops — and no task but the one a waiting handler needs.
"""

import asyncio
import contextlib

import pytest

from repro.core.exceptions import ServiceUnavailableError
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.daemon import wire
from repro.daemon.client import SocketTransport
from repro.daemon.demo import CLIENT, MERCHANT, WITNESS
from repro.daemon.framing import (
    HEADER,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    Frame,
    encode_frame,
)
from repro.daemon.keys import NodeIdentity, identity_keypair
from repro.daemon.service import MerchantDaemon, WitnessDaemon
from repro.net import registry
from tests.daemon.test_rpc import Loopback

NOW = 10


async def _until(condition, seconds=5.0):
    """Yield to the loop until ``condition()`` holds."""
    deadline = asyncio.get_running_loop().time() + seconds
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def test_requests_are_served_in_arrival_order():
    """Three requests in one chunk: each handler starts in the order the
    frames came — a generator handler's first step included — and a
    handler that does not wait replies at once."""

    async def scenario():
        order: list[str] = []
        release = asyncio.get_running_loop().create_future()

        def waits(payload):
            order.append("waits")
            yield release
            order.append("waits resumed")
            return {"who": "waits"}

        def plain(name):
            def handler(payload):
                order.append(name)
                return {"who": name}

            return handler

        handlers = {"waits": waits, "first": plain("first"), "second": plain("second")}
        async with Loopback(handlers) as loop:
            connection = loop.connection
            chunks: list[bytes] = []
            connection.transport.write = chunks.append
            calls = [connection.begin(method, {}) for method in ("waits", "first", "second")]
            del connection.transport.write
            connection.transport.write(b"".join(chunks))
            assert await calls[1] == {"who": "first"}
            assert await calls[2] == {"who": "second"}
            assert order == ["waits", "first", "second"]
            assert not calls[0].done()
            release.set_result(None)
            assert await calls[0] == {"who": "waits"}
            assert order[-1] == "waits resumed"
            assert [entry["method"] for entry in loop.node.rpc_log] == [
                "first",
                "second",
                "waits",
            ]

    asyncio.run(scenario())


def test_the_reply_is_metered_before_its_caller_resumes():
    async def scenario():
        async with Loopback({"echo": lambda payload: {"text": "y"}}) as loop:
            seen = []
            call = loop.connection.begin("echo", {"text": "x"})
            call.add_done_callback(lambda done: seen.append(loop.meter.messages_received))
            assert await call == {"text": "y"}
            assert seen == [1]

    asyncio.run(scenario())


def test_a_reply_nobody_waits_for_is_dropped_unmetered():
    async def scenario():
        release = asyncio.Event()

        async def slow(payload):
            await release.wait()
            return {"late": 1}

        async with Loopback({"slow": slow, "echo": lambda payload: {"text": "y"}}) as loop:
            connection = loop.connection
            stray = wire.response_body("echo", {"text": "stray"})
            connection.data_received(encode_frame(Frame(KIND_RESPONSE, 999, stray)))
            assert loop.meter.snapshot()[1] == 0 and not connection.lost
            abandoned = connection.begin("slow", {})
            abandoned.cancel()
            assert connection._pending == {}
            release.set()
            await _until(lambda: loop.node.rpc_log)  # the late reply is sent ...
            assert await connection.request("echo", {}) == {"text": "y"}
            assert loop.meter.messages_received == 1  # ... and dropped
            assert connection._pending == {}

    asyncio.run(scenario())


def test_loss_fails_every_pending_call():
    async def scenario():
        never = asyncio.Event()

        async def stall(payload):
            await never.wait()
            return {}

        async with Loopback({"stall": stall}) as loop:
            connection = loop.connection
            calls = [connection.begin("stall", {}) for _ in range(3)]
            await _until(lambda: len(loop.node._tasks) >= 3)
            for served in list(loop.node._connections):
                served.transport.abort()
            for call in calls:
                with pytest.raises(ServiceUnavailableError, match="lost"):
                    await call
            assert connection.lost and connection._pending == {}
            with pytest.raises(ServiceUnavailableError, match="lost"):
                await connection.request("stall", {})

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "header",
    [HEADER.pack(MAX_FRAME_BYTES + 1, KIND_RESPONSE, 1), HEADER.pack(0, 200, 1)],
    ids=["oversized", "unknown-kind"],
)
def test_a_bad_header_closes_the_connection_on_both_ends(header):
    async def scenario():
        never = asyncio.Event()

        async def stall(payload):
            await never.wait()
            return {}

        # The server reads it: it drops the connection, the client's calls fail.
        async with Loopback({"stall": stall}) as loop:
            pending = loop.connection.begin("stall", {})
            loop.connection.transport.write(header)
            with pytest.raises(ServiceUnavailableError, match="lost"):
                await pending
            await _until(lambda: not loop.node._connections)
            assert loop.connection.lost

        # The client reads it: it drops the connection, the server sees it go.
        async with Loopback({"stall": stall}) as loop:
            pending = loop.connection.begin("stall", {})
            loop.connection.data_received(header)
            assert loop.connection.lost
            with pytest.raises(ServiceUnavailableError, match="lost"):
                await pending
            await _until(lambda: not loop.node._connections)

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_makes_the_server_pause_reading():
    blob = "x" * 200_000

    async def scenario():
        async with Loopback({"blob": lambda payload: {"blob": blob}}) as loop:
            connection = loop.connection
            (served,) = loop.node._connections
            served.transport.set_write_buffer_limits(high=64 * 1024)
            connection.transport.pause_reading()  # the client stops reading
            calls = []
            while served.transport.is_reading():
                assert len(calls) < 400, "the server never stopped reading"
                calls.append(connection.begin("blob", {}))
                await asyncio.sleep(0.002)
            assert served.transport.get_write_buffer_size() > 64 * 1024
            connection.transport.resume_reading()
            replies = await asyncio.gather(*calls)
            assert all(reply["blob"] == blob for reply in replies)
            await _until(served.transport.is_reading)

    asyncio.run(scenario())


def test_admin_shutdown_replies_before_the_daemon_stops():
    async def scenario():
        async with Loopback({}) as loop:
            serving = asyncio.ensure_future(loop.node.serve_until_shutdown())
            reply = await loop.connection.request("admin/shutdown", {})
            assert registry.as_int(reply["stopping"]) == 1
            await asyncio.wait_for(serving, 5)
            await _until(lambda: loop.connection.lost)

    asyncio.run(scenario())


@contextlib.asynccontextmanager
async def _shop(system):
    """A witness and a storefront daemon on loopback, and a paying client."""
    identities = {
        name: NodeIdentity(name=name, keypair=identity_keypair(name, 5))
        for name in (WITNESS, MERCHANT, CLIENT)
    }
    roster = {name: identity.public for name, identity in identities.items()}
    witness = WitnessDaemon(system, WITNESS, identities[WITNESS], roster, "127.0.0.1", 0)
    witness.clock.pin(NOW)
    await witness.node.start()
    netmap = {WITNESS: ("127.0.0.1", witness.node.port)}
    shop = MerchantDaemon(
        system, MERCHANT, identities[MERCHANT], roster, "127.0.0.1", 0, netmap=netmap
    )
    shop.clock.pin(NOW)
    await shop.node.start()
    payer = SocketTransport(
        identities[CLIENT], roster, {**netmap, MERCHANT: ("127.0.0.1", shop.node.port)}
    )
    try:
        yield payer
    finally:
        await payer.close()
        await shop.node.stop()
        await witness.node.stop()


def test_a_payment_creates_one_task_and_a_plain_request_none(params):
    """Over open connections a payment's only task is the storefront's
    ``pay``, which waits for ``witness/sign``; a request whose handler
    does not wait creates none, on either end."""
    system = EcashSystem(
        merchant_ids=(WITNESS, MERCHANT),
        params=params,
        seed=53,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )
    client = system.new_client()
    coins = [
        run_withdrawal(client, system.broker, system.standard_info(25, NOW)) for _ in range(2)
    ]
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]

    def payment(stored):
        return registry.payment_flow(client, stored, MERCHANT, witness_public, lambda: NOW)

    async def scenario():
        created: list[str] = []

        def counting(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async with _shop(system) as payer:
            assert await payer.run_flow(CLIENT, payment(coins[0])) == 25  # opens every connection
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counting)
            try:
                assert await payer.run_flow(CLIENT, payment(coins[1])) == 25
                paid = list(created)
                created.clear()
                await payer.call(WITNESS, "admin/ping", {})
                await payer.call(MERCHANT, "admin/stats", {})
                plain = list(created)
            finally:
                loop.set_task_factory(None)
        return paid, plain

    paid, plain = asyncio.run(scenario())
    assert paid == ["_ServerConnection._resume"]
    assert plain == []
