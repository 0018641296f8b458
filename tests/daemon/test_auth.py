"""Mutual-handshake tests: acceptance, rejection, no-oracle refusals."""

import asyncio
import random

import pytest

from repro.daemon.auth import HandshakeError, client_handshake, server_handshake
from repro.daemon.framing import FrameError, FrameProtocol
from repro.daemon.keys import NodeIdentity, identity_keypair


def identity(name: str, seed: int = 99) -> NodeIdentity:
    return NodeIdentity(name=name, keypair=identity_keypair(name, seed))


async def handshake_pair(server_id, client_id, roster, client_roster=None):
    """Run both halves over a real loopback socket; return their outcomes."""
    loop = asyncio.get_running_loop()
    accepted: asyncio.Queue[FrameProtocol] = asyncio.Queue()

    class Accepted(FrameProtocol):
        def connection_made(self, transport):
            super().connection_made(transport)
            accepted.put_nowait(self)

    server_result: dict = {}

    async def serve() -> None:
        channel = await accepted.get()
        try:
            server_result["peer"] = await server_handshake(
                channel, server_id, roster, random.Random(1)
            )
        except Exception as error:  # recorded for assertions
            server_result["error"] = error
        finally:
            await channel.close()

    server = await loop.create_server(Accepted, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        serving = asyncio.create_task(serve())
        _, channel = await loop.create_connection(FrameProtocol, "127.0.0.1", port)
        try:
            await client_handshake(
                channel,
                client_id,
                server_id.name,
                client_roster if client_roster is not None else roster,
                random.Random(2),
            )
        finally:
            await channel.close()
        await asyncio.wait_for(serving, 5)
    finally:
        server.close()
        await server.wait_closed()
    return server_result


def test_mutual_handshake_succeeds():
    server_id, client_id = identity("broker"), identity("client-0")
    roster = {"broker": server_id.public, "client-0": client_id.public}
    result = asyncio.run(handshake_pair(server_id, client_id, roster))
    assert result == {"peer": "client-0"}


def test_unprovisioned_peer_rejected_before_protocol():
    server_id, client_id = identity("broker"), identity("mallory")
    roster = {"broker": server_id.public}  # mallory is not provisioned
    client_roster = {"broker": server_id.public, "mallory": client_id.public}
    with pytest.raises((HandshakeError, FrameError, ConnectionError)):
        asyncio.run(
            handshake_pair(server_id, client_id, roster, client_roster=client_roster)
        )


def test_wrong_key_rejected_with_same_refusal():
    # A known name announcing the wrong key gets the identical refusal
    # as an unknown name: the roster check is not a membership oracle.
    server_id, client_id = identity("broker"), identity("client-0")
    imposter = NodeIdentity(name="client-0", keypair=identity_keypair("other", 7))
    roster = {"broker": server_id.public, "client-0": client_id.public}
    client_roster = {"broker": server_id.public, "client-0": imposter.public}
    with pytest.raises((HandshakeError, FrameError, ConnectionError)):
        asyncio.run(
            handshake_pair(server_id, imposter, roster, client_roster=client_roster)
        )


def test_client_requires_server_in_roster():
    async def scenario():
        # Refused before the channel is touched: it is not even connected.
        with pytest.raises(HandshakeError, match="roster"):
            await client_handshake(
                FrameProtocol(), identity("client-0"), "broker", {}, random.Random(3)
            )

    asyncio.run(scenario())
