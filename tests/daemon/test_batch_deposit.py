"""``admin/deposit`` over real sockets: batched settlement, bounded stats,
quiet shutdown."""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import ProtocolViolationError
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.daemon import wire
from repro.daemon.client import PeerConnection, SocketTransport
from repro.daemon.demo import CLIENT, MERCHANT, write_deployment
from repro.daemon.framing import MAX_FRAME_BYTES
from repro.daemon.keys import NodeIdentity, identity_keypair, load_authorized, load_identity
from repro.daemon.service import (
    RPC_LOG_ENTRIES,
    BrokerDaemon,
    DaemonClock,
    DaemonNode,
    MerchantDaemon,
)
from repro.faults.recovery import BackoffPolicy
from repro.net.costmodel import instant_profile
from repro.crypto.serialize import pack_batch
from repro.net.registry import DEPOSIT_BATCH_SIZE, as_int
from repro.net.services import BROKER_NODE, NetworkDeployment
from repro.net.transport import TrafficMeter

WITNESS = "alice-books"
SHOP = "bob-news"
NOW = 5
COINS = 70  # 32 + 32 + 6


def _identity(name: str) -> NodeIdentity:
    return NodeIdentity(name=name, keypair=identity_keypair(name, 5))


def _system_with_pending(params) -> tuple[EcashSystem, list[int]]:
    """A system whose SHOP holds COINS accepted, undeposited transcripts."""
    system = EcashSystem(
        merchant_ids=(WITNESS, SHOP),
        params=params,
        seed=31,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )
    client = system.new_client()
    amounts = []
    for index in range(COINS):
        amount = (1, 5, 10, 25)[index % 4]
        stored = run_withdrawal(client, system.broker, system.standard_info(amount, NOW))
        run_payment(client, stored, system.merchant(SHOP), system.witness(WITNESS), NOW)
        amounts.append(amount)
    return system, amounts


async def _drain_over_sockets(system: EcashSystem) -> tuple[dict, list[tuple[str, int, int]]]:
    """Broker and storefront daemons in this process; one ``admin/deposit``."""
    identities = {name: _identity(name) for name in (BROKER_NODE, SHOP, "operator")}
    roster = {name: identity.public for name, identity in identities.items()}
    broker = BrokerDaemon(system, identities[BROKER_NODE], roster, "127.0.0.1", 0)
    broker.clock.pin(NOW)
    await broker.node.start()
    shop = MerchantDaemon(
        system,
        SHOP,
        identities[SHOP],
        roster,
        "127.0.0.1",
        0,
        netmap={BROKER_NODE: ("127.0.0.1", broker.node.port)},
    )
    await shop.node.start()
    operator = await PeerConnection.open(
        "127.0.0.1", shop.node.port, identities["operator"], SHOP, roster, TrafficMeter()
    )
    try:
        reply = await operator.request("admin/deposit", {}, timeout=120.0)
    finally:
        await operator.close()
        await shop.node.stop()
        await broker.node.stop()
    log = [
        (entry["method"], entry["request_bytes"], entry["response_bytes"])
        for entry in broker.node.rpc_log
    ]
    return reply, log


def _drain_over_sim(system: EcashSystem) -> list[tuple[str, int, int]]:
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=0)
    dep.sim.schedule(float(NOW), lambda: None)
    dep.sim.run()
    results = dep.run(dep.batch_deposit_process(SHOP))
    assert len(results) == COINS
    trace = dep.network.trace.entries
    requests = [e for e in trace if e.destination == BROKER_NODE and e.kind == "request"]
    responses = [e for e in trace if e.source == BROKER_NODE and e.kind == "response"]
    return [
        (request.method, request.size_bytes, response.size_bytes)
        for request, response in zip(requests, responses)
    ]


def test_seventy_transcripts_drain_in_three_batches_byte_equal_to_the_sim(params):
    daemon_system, amounts = _system_with_pending(params)
    reply, daemon_log = asyncio.run(_drain_over_sockets(daemon_system))
    sim_system, _ = _system_with_pending(params)
    sim_log = _drain_over_sim(sim_system)

    assert [method for method, _, _ in daemon_log] == ["deposit/batch"] * 3
    assert daemon_log == sim_log

    # The operator-facing reply kept its shape: a count and one indexed
    # outcome/amount pair per transcript, in acceptance order.
    assert as_int(reply["count"]) == COINS
    assert [reply[f"r{index}"]["outcome"] for index in range(COINS)] == ["credited"] * COINS
    assert [as_int(reply[f"r{index}"]["amount"]) for index in range(COINS)] == amounts
    for system in (daemon_system, sim_system):
        assert system.broker.merchant_balance(SHOP) == sum(amounts)
        assert not system.merchant(SHOP).pending_deposits()


def test_broker_daemon_refuses_a_batch_longer_than_the_limit(params):
    """The bound sits in the handler, so a peer that skips
    ``batch_deposit_flow`` gets a typed refusal and settles nothing."""
    system, _ = _system_with_pending(params)
    items = [signed.to_wire() for signed in system.merchant(SHOP).pending_deposits()]

    async def scenario() -> None:
        identities = {name: _identity(name) for name in (BROKER_NODE, SHOP)}
        roster = {name: identity.public for name, identity in identities.items()}
        broker = BrokerDaemon(system, identities[BROKER_NODE], roster, "127.0.0.1", 0)
        broker.clock.pin(NOW)
        await broker.node.start()
        peer = await PeerConnection.open(
            "127.0.0.1", broker.node.port, identities[SHOP], BROKER_NODE, roster, TrafficMeter()
        )
        try:
            with pytest.raises(ProtocolViolationError, match="the limit is 32"):
                await peer.request(
                    "deposit/batch",
                    {
                        "merchant_id": SHOP,
                        "batch": pack_batch("t", items[: DEPOSIT_BATCH_SIZE + 1]),
                    },
                    timeout=60.0,
                )
        finally:
            await peer.close()
            await broker.node.stop()

    asyncio.run(scenario())
    assert system.broker.merchant_balance(SHOP) == 0


def test_rpc_log_is_a_bounded_ring_and_stats_fit_a_frame():
    async def scenario() -> None:
        node = DaemonNode(
            identity=_identity("server"),
            authorized={},
            host="127.0.0.1",
            port=0,
            handlers={},
            clock=DaemonClock(),
        )
        for index in range(RPC_LOG_ENTRIES + 500):
            node.meter.record_received(1234)
            node.rpc_log.append(
                {
                    "method": "withdraw/batch-complete",
                    "request_bytes": 100_000 + index,
                    "response_bytes": 100_000 + index,
                    "kind": "response",
                }
            )
        assert len(node.rpc_log) == RPC_LOG_ENTRIES
        assert node.rpc_log[0]["request_bytes"] == 100_500  # oldest fell off
        reply = node.handlers["admin/stats"]({})
        # The four meter counters are always there, whatever the ring holds.
        assert reply["received"] == 1234 * (RPC_LOG_ENTRIES + 500)
        assert reply["messages_received"] == RPC_LOG_ENTRIES + 500
        assert {"sent", "messages_sent"} <= set(reply)
        assert f"l{RPC_LOG_ENTRIES - 1}" in reply and f"l{RPC_LOG_ENTRIES}" not in reply
        assert len(wire.response_body("admin/stats", reply)) < MAX_FRAME_BYTES // 2

    asyncio.run(scenario())


def test_clean_shutdown_exits_zero_with_empty_stderr(tmp_path: Path):
    """Two open connections at ``admin/shutdown``: the daemon must close
    them and finish its tasks itself, not leave them for the loop to
    cancel (which the stream machinery reports on stderr)."""
    config = write_deployment(tmp_path, seed=7)
    src_root = Path(__file__).resolve().parents[2] / "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(tmp_path), "--name", MERCHANT],
        env={**os.environ, "PYTHONPATH": str(src_root)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )

    def transport() -> SocketTransport:
        return SocketTransport(
            load_identity(tmp_path, CLIENT),
            load_authorized(tmp_path),
            config.netmap(),
            connect_attempts=60,
            connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
        )

    async def scenario() -> None:
        first, second = transport(), transport()
        try:
            await first.call(MERCHANT, "admin/ping", {}, timeout=30.0)
            await second.call(MERCHANT, "admin/ping", {}, timeout=30.0)
            await first.call(MERCHANT, "admin/shutdown", {})
            await asyncio.to_thread(process.wait, 30.0)
        finally:
            await first.close()
            await second.close()

    try:
        asyncio.run(scenario())
        _, stderr = process.communicate(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0
    assert stderr == b""
