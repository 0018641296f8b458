"""Payments through real daemons with ``witness/sign`` sent before the
storefront's own checks: forged requests get the storefront's verdict and
leave nothing behind, and a storefront outlives a broker restart."""

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import (
    CommitmentError,
    InvalidPaymentError,
    ServiceUnavailableError,
)
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import PaymentTranscript, WitnessCommitment
from repro.crypto.serialize import flatten
from repro.daemon.client import SocketTransport
from repro.daemon.demo import BROKER, CLIENT, MERCHANT, WITNESS, write_deployment
from repro.daemon.keys import NodeIdentity, identity_keypair, load_authorized, load_identity
from repro.daemon.service import MerchantDaemon, WitnessDaemon
from repro.faults.recovery import BackoffPolicy
from repro.net import registry

NOW = 10


async def _built_payment(transport, client, stored, system):
    """Algorithm 2 up to the storefront: commit at the witness, build."""
    request, pending = client.prepare_commitment_request(stored, MERCHANT, NOW)
    reply = flatten(await transport.call(WITNESS, "witness/commit", request.to_wire()))
    commitment = WitnessCommitment.from_wire(
        registry.strip_prefix(reply, "commitment.")
    )
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]
    transcript = client.build_payment(pending, commitment, witness_public, NOW)
    return transcript, commitment


def _with_forged_signature(commitment):
    return WitnessCommitment(
        witness_id=commitment.witness_id,
        coin_hash=commitment.coin_hash,
        nonce=commitment.nonce,
        v_hash=commitment.v_hash,
        expires_at=commitment.expires_at,
        signature=type(commitment.signature)(
            e=commitment.signature.e, s=commitment.signature.s + 1
        ),
    )


def _with_forged_proof(transcript, q):
    return PaymentTranscript(
        coin=transcript.coin,
        response=type(transcript.response)(
            r1=(transcript.response.r1 + 1) % q, r2=transcript.response.r2
        ),
        merchant_id=transcript.merchant_id,
        timestamp=transcript.timestamp,
        salt=transcript.salt,
    )


def _pay(transport, transcript, commitment):
    return transport.call(
        MERCHANT,
        "pay",
        {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()},
    )


def test_forged_payments_get_the_storefronts_verdict_and_leave_nothing_behind(params):
    system = EcashSystem(
        merchant_ids=(WITNESS, MERCHANT),
        params=params,
        seed=41,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )
    client = system.new_client()
    coins = [
        run_withdrawal(client, system.broker, system.standard_info(25, NOW))
        for _ in range(3)
    ]

    async def scenario() -> None:
        identities = {
            name: NodeIdentity(name=name, keypair=identity_keypair(name, 5))
            for name in (WITNESS, MERCHANT, CLIENT)
        }
        roster = {name: identity.public for name, identity in identities.items()}
        witness = WitnessDaemon(
            system, WITNESS, identities[WITNESS], roster, "127.0.0.1", 0
        )
        witness.clock.pin(NOW)
        await witness.node.start()
        netmap = {WITNESS: ("127.0.0.1", witness.node.port)}
        shop = MerchantDaemon(
            system, MERCHANT, identities[MERCHANT], roster, "127.0.0.1", 0, netmap=netmap
        )
        shop.clock.pin(NOW)
        await shop.node.start()
        payer = SocketTransport(
            identities[CLIENT],
            roster,
            {**netmap, MERCHANT: ("127.0.0.1", shop.node.port)},
        )
        try:
            honest = await _built_payment(payer, client, coins[0], system)
            assert (await _pay(payer, *honest))["status"] == "service"

            transcript, commitment = await _built_payment(payer, client, coins[1], system)
            with pytest.raises(
                CommitmentError, match="witness signature on commitment failed to verify"
            ):
                await _pay(payer, transcript, _with_forged_signature(commitment))

            transcript, commitment = await _built_payment(payer, client, coins[2], system)
            forged = _with_forged_proof(transcript, system.params.group.q)
            with pytest.raises(InvalidPaymentError, match="representation proof"):
                await _pay(payer, forged, commitment)

            link = shop.transport._connections[WITNESS]
            assert link._pending == {}
        finally:
            await payer.close()
            await shop.node.stop()
            await witness.node.stop()

        # The storefront holds the honest payment and nothing else ...
        merchant = system.merchant(MERCHANT)
        assert merchant._seen_bare_coins == {honest[0].coin.bare}
        assert [s.transcript for s in merchant.pending_deposits()] == [honest[0]]
        # ... while both forgeries did reach the witness ahead of the
        # storefront's verdict: it countersigned the valid transcript of
        # the payer who forged the commitment (that payer burned their own
        # coin) and refused the forged proof itself.
        signs = [e for e in witness.node.rpc_log if e["method"] == "witness/sign"]
        assert [entry["kind"] for entry in signs] == ["response", "response", "error"]
        seen = [system.witness(WITNESS).has_seen(c.coin.digest(params)) for c in coins]
        assert seen == [True, True, False]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# OS processes: a broker killed and restarted under a running storefront
# ----------------------------------------------------------------------
def _serve(directory: Path, name: str, *extra: str) -> subprocess.Popen:
    src_root = Path(__file__).resolve().parents[2] / "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(directory), "--name", name, *extra],
        env={**os.environ, "PYTHONPATH": str(src_root)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def test_storefront_deposits_again_after_the_broker_restarts(tmp_path: Path):
    directory = tmp_path / "dep"
    directory.mkdir()
    config = write_deployment(directory, seed=19)
    broker_args = ("--state-dir", str(tmp_path / "state"))
    processes = {
        BROKER: _serve(directory, BROKER, *broker_args),
        WITNESS: _serve(directory, WITNESS),
        MERCHANT: _serve(directory, MERCHANT),
    }
    system = config.build_system()
    client = system.new_client()
    transport = SocketTransport(
        load_identity(directory, CLIENT),
        load_authorized(directory),
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]

    async def pin_clock(name: str) -> None:
        await transport.call(name, "admin/clock", {"now": NOW}, timeout=60.0)

    async def pay_and_drain(denomination: int) -> dict:
        info = system.standard_info(denomination, now=NOW)
        stored = await transport.run_flow(
            CLIENT, registry.withdrawal_flow(client, BROKER, system.broker.tables, info)
        )
        await transport.run_flow(
            CLIENT,
            registry.payment_flow(client, stored, MERCHANT, witness_public, lambda: NOW),
        )
        return await transport.call(MERCHANT, "admin/deposit", {}, timeout=5.0)

    async def scenario() -> None:
        try:
            for name in processes:
                await pin_clock(name)
            first = await pay_and_drain(25)
            assert registry.as_int(first["count"]) == 1
            assert first["r0"]["outcome"] == "credited"

            processes[BROKER].send_signal(signal.SIGKILL)
            killed = await asyncio.to_thread(processes[BROKER].communicate, None, 30.0)
            assert killed[1] == b""
            processes[BROKER] = _serve(directory, BROKER, *broker_args)
            # This client's own connection died with the broker: a call
            # racing the loss is told so, the next one reconnects.
            with contextlib.suppress(ServiceUnavailableError):
                await pin_clock(BROKER)
            await pin_clock(BROKER)

            # The storefront's connection to the old broker is dead; the
            # drain must notice, reconnect and settle — the new coin only.
            second = await pay_and_drain(10)
            assert registry.as_int(second["count"]) == 1
            assert second["r0"]["outcome"] == "credited"
            assert registry.as_int(second["r0"]["amount"]) == 10
            third = await transport.call(MERCHANT, "admin/deposit", {}, timeout=5.0)
            assert registry.as_int(third["count"]) == 0

            for name in processes:
                await transport.call(name, "admin/shutdown", {})
        finally:
            await transport.close()

    try:
        asyncio.run(scenario())
        outputs = {
            name: (process.communicate(timeout=30.0)[1], process.returncode)
            for name, process in processes.items()
        }
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    assert outputs == {name: (b"", 0) for name in processes}
