"""Real daemons for the paper's parties: asyncio services over TCP.

The discrete-event sim (:mod:`repro.net`) and this package are two
implementations of the same transport contract
(:class:`repro.net.registry.Transport`): both register the registry's
dispatch tables server-side and drive the registry's protocol flows
client-side, and both speak the URL-encoded wire format of
:mod:`repro.crypto.serialize` with :data:`~repro.net.transport.HTTP_FRAMING_BYTES`
of envelope overhead per message — so a scenario replayed on either
backend produces byte-identical protocol traffic and byte-identical
:class:`~repro.net.transport.TrafficMeter` books.

Layers, bottom up:

* :mod:`repro.daemon.framing` — length-prefixed frames over TCP, and the
  ``asyncio.Protocol`` that parses them inside ``data_received``.
* :mod:`repro.daemon.wire` — frame bodies (the sim's message strings)
  and typed error propagation.
* :mod:`repro.daemon.keys` / :mod:`repro.daemon.auth` — static-key
  provisioning and the mutual CURVE/Ironhouse-style handshake.
* :mod:`repro.daemon.client` — request multiplexing, timeouts, seeded
  connection backoff, and the socket :class:`~repro.net.registry.Transport`.
* :mod:`repro.daemon.service` — the broker/witness/merchant daemons.
* :mod:`repro.daemon.config` / :mod:`repro.daemon.demo` — deployment
  descriptors and the three-process loopback demonstration.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.daemon.auth import HandshakeError, client_handshake, server_handshake
    from repro.daemon.client import PeerConnection, SocketTransport
    from repro.daemon.config import DeploymentConfig, NodeAddress, load_config
    from repro.daemon.framing import (
        Frame,
        FrameDecoder,
        FrameError,
        FrameTooLargeError,
        MAX_FRAME_BYTES,
    )
    from repro.daemon.keys import NodeIdentity, identity_keypair, load_identity, provision
    from repro.daemon.service import (
        BrokerDaemon,
        DaemonClock,
        DaemonNode,
        MerchantDaemon,
        WitnessDaemon,
    )
    from repro.daemon.wire import RemoteProtocolError

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.daemon.auth": ("HandshakeError", "client_handshake", "server_handshake"),
        "repro.daemon.client": ("PeerConnection", "SocketTransport"),
        "repro.daemon.config": ("DeploymentConfig", "NodeAddress", "load_config"),
        "repro.daemon.framing": (
            "Frame", "FrameDecoder", "FrameError", "FrameTooLargeError",
            "MAX_FRAME_BYTES",
        ),
        "repro.daemon.keys": (
            "NodeIdentity", "identity_keypair", "load_identity", "provision",
        ),
        "repro.daemon.service": (
            "BrokerDaemon", "DaemonClock", "DaemonNode", "MerchantDaemon",
            "WitnessDaemon",
        ),
        "repro.daemon.wire": ("RemoteProtocolError",),
    },
)

__all__ = [
    "BrokerDaemon",
    "DaemonClock",
    "DaemonNode",
    "DeploymentConfig",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "HandshakeError",
    "MAX_FRAME_BYTES",
    "MerchantDaemon",
    "NodeAddress",
    "NodeIdentity",
    "PeerConnection",
    "RemoteProtocolError",
    "SocketTransport",
    "WitnessDaemon",
    "client_handshake",
    "identity_keypair",
    "load_config",
    "load_identity",
    "provision",
    "server_handshake",
]
