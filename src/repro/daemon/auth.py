"""Mutual authentication handshake for daemon connections.

Ironhouse-style channel establishment over the framing layer (a
:class:`~repro.daemon.framing.FrameProtocol` before it starts handing
frames to its protocol handler): both ends
hold static keypairs, both ends know the deployment roster
(``authorized.json``), and each proves possession of its secret key by
signing a role-tagged transcript of the exchanged nonces. A peer whose
name is missing from the roster — or whose announced public key differs
from the provisioned one — is rejected *before any protocol frame is
parsed*, so unauthenticated input never reaches the payload decoders.

The exchange (all :data:`~repro.daemon.framing.KIND_CONTROL` frames,
request id 0, unmetered)::

    client -> server   hello   {name, public, nonce_c}
    server -> client   welcome {name, nonce_s, sig_s}
    client -> server   auth    {sig_c}
    server -> client   ok      {}

``sig_s`` signs ("hs-server", client, server, nonce_c, nonce_s) and
``sig_c`` signs ("hs-client", client, server, nonce_c, nonce_s); the
role tags stop a signature from one direction being replayed in the
other.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.crypto.hashing import constant_time_eq
from repro.crypto.schnorr import SchnorrSignature, verify
from repro.crypto.serialize import decode, encode, text_to_int
from repro.daemon.framing import Frame, FrameProtocol, KIND_CONTROL
from repro.daemon.keys import NodeIdentity

_SERVER_TAG = "hs-server"
_CLIENT_TAG = "hs-client"


class HandshakeError(Exception):
    """Authentication failed: unknown peer, bad key, or bad signature."""


def _int_field(fields: Mapping[str, str], key: str, stage: str) -> int:
    """A required integer field of a handshake message, strictly parsed."""
    value = fields.get(key)
    if value is None:
        raise HandshakeError(f"handshake {stage} message lacks field {key!r}")
    try:
        return text_to_int(value)
    except ValueError as error:
        raise HandshakeError(
            f"handshake {stage} field {key!r} is malformed"
        ) from error


def _control(fields: dict[str, object]) -> Frame:
    return Frame(
        kind=KIND_CONTROL, request_id=0, body=encode(fields).encode("ascii")
    )


async def _read_control(channel: FrameProtocol, stage: str) -> dict[str, str]:
    frame = await channel.read_frame()
    if frame.kind != KIND_CONTROL:
        raise HandshakeError(f"expected a control frame during {stage}")
    fields = decode(frame.body.decode("ascii"))
    if fields.get("hs") != stage:
        raise HandshakeError(
            f"expected handshake stage {stage!r}, peer sent {fields.get('hs')!r}"
        )
    return fields


async def server_handshake(
    channel: FrameProtocol,
    identity: NodeIdentity,
    authorized: Mapping[str, int],
    rng: random.Random,
) -> str:
    """Authenticate an inbound connection; returns the peer's name.

    Raises:
        HandshakeError: the peer is not in the roster, announced a public
            key that differs from the provisioned one, or failed the
            signature check.
    """
    hello = await _read_control(channel, "hello")
    peer_name = hello.get("name", "")
    announced = _int_field(hello, "public", "hello")
    provisioned = authorized.get(peer_name)
    if provisioned is None or not constant_time_eq(provisioned, announced):
        # Same refusal for "unknown name" and "wrong key": no oracle.
        raise HandshakeError(f"peer {peer_name!r} is not authorized")
    nonce_c = _int_field(hello, "nonce", "hello")
    nonce_s = rng.getrandbits(128)
    signature = identity.keypair.sign(
        _SERVER_TAG, peer_name, identity.name, nonce_c, nonce_s, rng=rng
    )
    channel.write_frame(
        _control(
            {
                "hs": "welcome",
                "name": identity.name,
                "nonce": nonce_s,
                "sig_e": signature.e,
                "sig_s": signature.s,
            }
        )
    )
    auth = await _read_control(channel, "auth")
    peer_signature = SchnorrSignature(
        e=_int_field(auth, "sig_e", "auth"), s=_int_field(auth, "sig_s", "auth")
    )
    if not verify(
        identity.keypair.group,
        provisioned,
        peer_signature,
        _CLIENT_TAG,
        peer_name,
        identity.name,
        nonce_c,
        nonce_s,
    ):
        raise HandshakeError(f"peer {peer_name!r} failed proof of possession")
    channel.write_frame(_control({"hs": "ok"}))
    return peer_name


async def client_handshake(
    channel: FrameProtocol,
    identity: NodeIdentity,
    server_name: str,
    authorized: Mapping[str, int],
    rng: random.Random,
) -> None:
    """Authenticate an outbound connection to ``server_name``.

    Raises:
        HandshakeError: the server is not in the local roster, claims a
            different name, or fails the signature check.
    """
    server_public = authorized.get(server_name)
    if server_public is None:
        raise HandshakeError(f"server {server_name!r} is not in the local roster")
    nonce_c = rng.getrandbits(128)
    channel.write_frame(
        _control(
            {
                "hs": "hello",
                "name": identity.name,
                "public": identity.public,
                "nonce": nonce_c,
            }
        )
    )
    welcome = await _read_control(channel, "welcome")
    if welcome.get("name") != server_name:
        raise HandshakeError(
            f"server identified as {welcome.get('name')!r}, expected {server_name!r}"
        )
    nonce_s = _int_field(welcome, "nonce", "welcome")
    server_signature = SchnorrSignature(
        e=_int_field(welcome, "sig_e", "welcome"),
        s=_int_field(welcome, "sig_s", "welcome"),
    )
    if not verify(
        identity.keypair.group,
        server_public,
        server_signature,
        _SERVER_TAG,
        identity.name,
        server_name,
        nonce_c,
        nonce_s,
    ):
        raise HandshakeError(f"server {server_name!r} failed proof of possession")
    signature = identity.keypair.sign(
        _CLIENT_TAG, identity.name, server_name, nonce_c, nonce_s, rng=rng
    )
    channel.write_frame(_control({"hs": "auth", "sig_e": signature.e, "sig_s": signature.s}))
    await _read_control(channel, "ok")


__all__ = ["HandshakeError", "client_handshake", "server_handshake"]
