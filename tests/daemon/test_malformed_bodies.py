"""Malformed request bodies over real sockets: each is refused with a
typed error frame, leaves nothing pending, and the connection — and the
daemon's books — carry on as if it had never been sent. A body whose
keys are not ``pay``'s is refused by the registry's shape check before
the handler runs, so it never reaches the witness."""

import asyncio
import contextlib

import pytest

from repro import obs
from repro.core.exceptions import EcashError
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import WitnessCommitment
from repro.crypto.serialize import flatten, int_to_text
from repro.daemon import wire
from repro.daemon.client import SocketTransport
from repro.daemon.demo import CLIENT, MERCHANT, WITNESS
from repro.daemon.keys import NodeIdentity, identity_keypair
from repro.daemon.service import MerchantDaemon, WitnessDaemon
from repro.daemon.wire import RemoteProtocolError
from repro.net import registry

NOW = 10


@contextlib.asynccontextmanager
async def deployment(system):
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
        yield witness, shop, payer
    finally:
        await payer.close()
        await shop.node.stop()
        await witness.node.stop()


def _system(params, seed):
    return EcashSystem(
        merchant_ids=(WITNESS, MERCHANT),
        params=params,
        seed=seed,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )


async def _pay_body(payer, client, stored, system) -> bytes:
    """Algorithm 2 up to the storefront; the honest ``pay`` request body."""
    request, pending = client.prepare_commitment_request(stored, MERCHANT, NOW)
    reply = flatten(await payer.call(WITNESS, "witness/commit", request.to_wire()))
    commitment = WitnessCommitment.from_wire(registry.strip_prefix(reply, "commitment."))
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]
    transcript = client.build_payment(pending, commitment, witness_public, NOW)
    return wire.request_body(
        "pay", {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()}
    )


def _send_raw(connection, method, body):
    """``PeerConnection.begin`` with exactly ``body`` on the wire."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire, "request_body", lambda method, payload: body)
        return connection.begin(method, {})


def _replace_field(body: bytes, key: bytes, value: bytes | None) -> bytes:
    """``body`` with field ``key`` set to ``value``, or dropped for None."""
    fields = body.split(b"&")
    (index,) = [i for i, field in enumerate(fields) if field.startswith(key + b"=")]
    if value is None:
        del fields[index]
    else:
        fields[index] = key + b"=" + value
    return b"&".join(fields)


def _kind(error: EcashError) -> str:
    """The error type the daemon reported, rebuilt or not."""
    return error.kind if isinstance(error, RemoteProtocolError) else type(error).__name__


#: name -> (mutation of an honest ``pay`` body, whether the daemon gets as
#: far as a method name — only then is the exchange metered — and the
#: error type the payer is refused with).
MALFORMED = {
    "duplicate key": (lambda body: body + b"&transcript.coin.bare.A=AQ", False, "ValueError"),
    "scalar and nested": (lambda body: body + b"&t=AQ", False, "ValueError"),
    "smuggled _error": (lambda body: body + b"&_error=EcashError", False, "ValueError"),
    "missing _method": (lambda body: body.removeprefix(b"_method=pay&"), False, "ValueError"),
    "truncated escape": (
        lambda body: _replace_field(body, b"t.ts", b"Cg%4"), True, "ValueError"
    ),
    "undeclared key": (lambda body: body + b"&junk=AQ", True, "ProtocolViolationError"),
    "missing key": (
        lambda body: _replace_field(body, b"t.ts", None), True, "ProtocolViolationError"
    ),
}


def test_malformed_pay_bodies_are_refused_and_the_connection_carries_on(params):
    system = _system(params, seed=43)
    client = system.new_client()
    coins = [
        run_withdrawal(client, system.broker, system.standard_info(25, NOW))
        for _ in range(len(MALFORMED))
    ]

    async def scenario() -> None:
        async with deployment(system) as (witness, shop, payer):
            connection = await payer.connection(MERCHANT)
            honest_sizes = []
            refused_sizes = []
            for stored, (name, (mutate, reaches_handler, kind)) in zip(
                coins, MALFORMED.items()
            ):
                honest = await _pay_body(payer, client, stored, system)
                malformed = mutate(honest)
                assert malformed != honest, name
                signs = witness.node.handler_time.get("witness/sign", (0, 0.0))[0]
                handler_errors = obs.registry().counter_value(
                    "daemon_handler_errors_total", method="pay"
                )
                with pytest.raises(EcashError) as refusal:
                    await _send_raw(connection, "pay", malformed)
                assert _kind(refusal.value) == kind, name
                assert connection._pending == {}, name
                assert witness.node.handler_time.get("witness/sign", (0, 0.0))[0] == signs, name
                if kind == "ProtocolViolationError":
                    # A typed refusal, not a handler bug.
                    assert obs.registry().counter_value(
                        "daemon_handler_errors_total", method="pay"
                    ) == handler_errors, name
                if reaches_handler:
                    refused_sizes.append(wire.message_size(malformed))
                # The very next request on the same connection is served.
                reply = await _send_raw(connection, "pay", honest)
                assert reply["status"] == "service", name
                assert connection._pending == {}
                honest_sizes.append(wire.message_size(honest))
            assert payer._connections[MERCHANT] is connection and not connection.lost
            assert shop.transport._connections[WITNESS]._pending == {}

            stats = await payer.call(MERCHANT, "admin/stats", {})
            served = {}
            index = 0
            while f"t{index}" in stats:
                entry = stats[f"t{index}"]
                served[entry["method"]] = registry.as_int(entry["count"])
                index += 1
            # A body that never yields a method name is answered but not
            # metered; one that fails inside the handler is an ordinary
            # refused exchange.
            unparsed = sum(1 for _, reaches, _ in MALFORMED.values() if not reaches)
            assert served["?"] == unparsed
            assert served["pay"] == len(coins) + len(refused_sizes)
            logged = []
            index = 0
            while f"l{index}" in stats:
                entry = stats[f"l{index}"]
                logged.append(
                    (entry["method"], registry.as_int(entry["req"]), entry["kind"])
                )
                index += 1
            assert sorted(logged) == sorted(
                [("pay", size, "response") for size in honest_sizes]
                + [("pay", size, "error") for size in refused_sizes]
            )
            # The storefront's meter also counts its own calls: one
            # witness/sign reply per honest payment, none for a refusal.
            assert registry.as_int(stats["messages_received"]) == len(logged) + len(coins)

        merchant = system.merchant(MERCHANT)
        assert len(merchant.pending_deposits()) == len(coins)

    with obs.enabled():
        asyncio.run(scenario())


@pytest.mark.parametrize("spelling", ["AQ=", "AQ==", "AAE", "AAAB"])
def test_a_noncanonical_integer_is_refused_by_a_real_witness(params, spelling):
    """Every spelling here used to parse as the nonce 1."""
    system = _system(params, seed=44)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, NOW))
    coin_hash = stored.coin.digest(system.params)

    async def scenario() -> None:
        async with deployment(system) as (witness, shop, payer):
            del shop
            service = system.witness(WITNESS)
            assert service._commitments == {}
            with pytest.raises(RemoteProtocolError) as refusal:
                await payer.call(
                    WITNESS, "witness/commit", {"coin_hash": coin_hash, "nonce": spelling}
                )
            assert refusal.value.kind == "ValueError"
            assert "malformed wire integer" in refusal.value.detail
            assert service._commitments == {}
            connection = payer._connections[WITNESS]
            assert connection._pending == {} and not connection.lost
            # The canonical spelling of the same value, on the same connection.
            reply = await payer.call(
                WITNESS, "witness/commit", {"coin_hash": coin_hash, "nonce": int_to_text(1)}
            )
            assert payer._connections[WITNESS] is connection
            assert registry.as_int(reply["commitment"]["nonce"]) == 1
            assert list(service._commitments) == [coin_hash]
            assert witness.node.handler_time["witness/commit"][0] == 2

    asyncio.run(scenario())
