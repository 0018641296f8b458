"""``admin/deposit`` over real sockets: batched settlement with the next
batch on the wire while the broker verifies this one, a failed batch
that leaks nothing, a broker that stops on a failed commit, bounded
stats, quiet shutdown."""

import asyncio
import contextlib
import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core.exceptions import ProtocolViolationError, ServiceUnavailableError
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
from repro.crypto.serialize import flatten, pack_batch
from repro.faults.invariants import InvariantChecker
from repro.net.registry import ALREADY_CREDITED, DEPOSIT_BATCH_SIZE, as_int
from repro.net.services import BROKER_NODE, NetworkDeployment
from repro.net.transport import TrafficMeter
from repro.store import StoreIOError
from repro.store import wal as wal_module

WITNESS = "alice-books"
SHOP = "bob-news"
NOW = 5
COINS = 70  # 32 + 32 + 6


def _identity(name: str) -> NodeIdentity:
    return NodeIdentity(name=name, keypair=identity_keypair(name, 5))


def _system(params) -> EcashSystem:
    return EcashSystem(
        merchant_ids=(WITNESS, SHOP),
        params=params,
        seed=31,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )


def _system_with_pending(params) -> tuple[EcashSystem, list[int]]:
    """A system whose SHOP holds COINS accepted, undeposited transcripts."""
    system = _system(params)
    client = system.new_client()
    amounts = []
    for index in range(COINS):
        amount = (1, 5, 10, 25)[index % 4]
        stored = run_withdrawal(client, system.broker, system.standard_info(amount, NOW))
        run_payment(client, stored, system.merchant(SHOP), system.witness(WITNESS), NOW)
        amounts.append(amount)
    return system, amounts


@contextlib.asynccontextmanager
async def _deployment(system: EcashSystem, broker_state_dir: str | None = None):
    """Broker and storefront daemons in this process; yields them with an
    operator's connection to the storefront."""
    identities = {name: _identity(name) for name in (BROKER_NODE, SHOP, "operator")}
    roster = {name: identity.public for name, identity in identities.items()}
    broker = BrokerDaemon(
        system, identities[BROKER_NODE], roster, "127.0.0.1", 0, state_dir=broker_state_dir
    )
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
        yield broker, shop, operator
    finally:
        await operator.close()
        await shop.node.stop()
        await broker.node.stop()


def _log(broker: BrokerDaemon) -> list[tuple[str, int, int]]:
    return [
        (entry["method"], entry["request_bytes"], entry["response_bytes"])
        for entry in broker.node.rpc_log
    ]


async def _drain_over_sockets(system: EcashSystem) -> tuple[dict, list[tuple[str, int, int]]]:
    """Broker and storefront daemons in this process; one ``admin/deposit``."""
    async with _deployment(system) as (broker, _, operator):
        reply = await operator.request("admin/deposit", {}, timeout=120.0)
    return reply, _log(broker)


def _recording_batches(broker: BrokerDaemon, fail_call: int = 0) -> list[list[int]]:
    """Wrap the broker's ``deposit/batch`` entry: each call appends its
    transcripts' salts in order, and call number ``fail_call`` (1-based;
    0: none) fails whole before the broker settles any of it."""
    serve = broker.node.handlers["deposit/batch"]
    calls: list[list[int]] = []

    def recording(payload):
        flat = flatten(payload)
        salts: list[int] = []
        while f"batch.t{len(salts)}.transcript.salt" in flat:
            salts.append(as_int(flat[f"batch.t{len(salts)}.transcript.salt"]))
        calls.append(salts)
        if len(calls) == fail_call:
            raise ServiceUnavailableError(f"deposit/batch call {fail_call} refused")
        return serve(payload)

    broker.node.handlers["deposit/batch"] = recording
    return calls


def _salts(transcripts) -> list[int]:
    return [signed.transcript.salt for signed in transcripts]


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


def test_a_failing_middle_batch_fails_the_drain_typed_and_the_retry_credits_each_coin_once(
    params,
):
    """The broker refuses the second of three batches whole. The third was
    on the wire behind it and the broker settles it, but its reply is
    dropped, not applied: the drain fails with the typed error, only batch
    1 is marked deposited, and a second drain credits batch 2 and finds
    batch 3 already credited."""
    system, amounts = _system_with_pending(params)
    merchant = system.merchant(SHOP)
    pending = merchant.pending_deposits()
    chunks = [pending[:32], pending[32:64], pending[64:]]
    checker = InvariantChecker(system)

    async def scenario():
        async with _deployment(system) as (broker, shop, operator):
            calls = _recording_batches(broker, fail_call=2)
            with pytest.raises(ServiceUnavailableError, match="call 2 refused"):
                await operator.request("admin/deposit", {}, timeout=120.0)
            left = merchant.pending_deposits()
            in_flight = dict(shop.transport._connections[BROKER_NODE]._pending)
            retry = await operator.request("admin/deposit", {}, timeout=120.0)
        return calls, left, in_flight, retry

    calls, left, in_flight, retry = asyncio.run(scenario())

    # Batch 3 reached the broker before the refusal of batch 2 reached the
    # storefront, and the broker settled it (call 3 did not raise); the
    # retry resends batches 2 and 3, in chunk order.
    assert calls == [_salts(chunk) for chunk in (*chunks, chunks[1], chunks[2])]
    assert _salts(left) == _salts(chunks[1] + chunks[2])
    assert in_flight == {}

    assert as_int(retry["count"]) == len(chunks[1]) + len(chunks[2])
    outcomes = [retry[f"r{index}"] for index in range(as_int(retry["count"]))]
    assert [entry["outcome"] for entry in outcomes] == (
        ["credited"] * len(chunks[1]) + [ALREADY_CREDITED] * len(chunks[2])
    )
    assert [as_int(entry["amount"]) for entry in outcomes] == (
        amounts[32:64] + [0] * len(chunks[2])
    )
    assert system.broker.merchant_balance(SHOP) == sum(amounts)
    assert not merchant.pending_deposits()
    assert checker.ledger_conserved().ok
    assert checker.single_credit_per_coin().ok


def test_the_next_batch_is_on_the_wire_before_this_reply_is_read(params):
    system, amounts = _system_with_pending(params)
    events: list[str] = []

    async def scenario():
        async with _deployment(system) as (broker, shop, operator):
            connection = await shop.transport.connection(BROKER_NODE)
            write, received = connection.transport.write, connection.frame_received

            def logging_write(data: bytes) -> None:
                events.append(f"frame {connection._next_id - 1}")
                write(data)

            def logging_received(frame) -> None:
                events.append(f"reply {frame.request_id}")
                received(frame)

            connection.transport.write = logging_write
            connection.frame_received = logging_received
            obs.reset()
            with obs.enabled():
                reply = await operator.request("admin/deposit", {}, timeout=120.0)
                taken = obs.registry().counter_value(
                    "transport_ahead_calls_total", method="deposit/batch"
                )
            obs.reset()
            stats = broker.node.handlers["admin/stats"]({})
        return reply, taken, stats

    reply, taken, stats = asyncio.run(scenario())
    # Batch k+1 leaves before batch k's reply is read, batch k+2 only
    # after it: one call ahead, never two. (When reply 2 is read, before
    # or after frame 3 leaves, is up to the loop: the broker here shares it.)
    assert events[:3] == ["frame 1", "frame 2", "reply 1"]
    assert sorted(events[3:]) == ["frame 3", "reply 2", "reply 3"]
    assert events.index("frame 3") < events.index("reply 3")
    assert taken == 2
    assert [as_int(reply[f"r{index}"]["amount"]) for index in range(COINS)] == amounts
    # ``admin/stats`` reports each memo's hits and misses beside its entry
    # count; every coin's ``z = F(info)`` was looked up in the broker's
    # ``hash-F`` memo, and the coins share a few ``info`` values.
    memo = stats["memo"]
    assert set(memo) == set(stats["perf"]) - {"fixed-base-tables"}
    shared = memo["hash-F"]
    assert shared["hits"] + shared["misses"] >= COINS
    assert shared["hits"] > shared["misses"]


def test_batches_keep_chunk_order_on_the_connection_after_a_broker_restart(params):
    """The storefront's connection to the broker is lost under it; the
    drain opens a new one and both frames it sends before the first reply
    go out on it in chunk order."""
    daemon_system, amounts = _system_with_pending(params)
    pending = daemon_system.merchant(SHOP).pending_deposits()
    roster = {name: _identity(name).public for name in (BROKER_NODE, SHOP, "operator")}

    async def scenario():
        async with _deployment(daemon_system) as (broker, shop, operator):
            lost = await shop.transport.connection(BROKER_NODE)
            await broker.node.stop()
            for _ in range(500):
                if lost.lost:
                    break
                await asyncio.sleep(0.01)
            assert lost.lost
            restarted = BrokerDaemon(
                daemon_system,
                _identity(BROKER_NODE),
                roster,
                "127.0.0.1",
                broker.node.port,
            )
            restarted.clock.pin(NOW)
            await restarted.node.start()
            try:
                calls = _recording_batches(restarted)
                reply = await operator.request("admin/deposit", {}, timeout=120.0)
            finally:
                await restarted.node.stop()
        return calls, reply, _log(restarted)

    calls, reply, daemon_log = asyncio.run(scenario())
    assert [len(call) for call in calls] == [32, 32, 6]
    assert calls == [_salts(pending[start : start + 32]) for start in (0, 32, 64)]
    sim_system, _ = _system_with_pending(params)
    assert daemon_log == _drain_over_sim(sim_system)
    assert [as_int(reply[f"r{index}"]["amount"]) for index in range(COINS)] == amounts
    assert daemon_system.broker.merchant_balance(SHOP) == sum(amounts)


def test_a_durable_broker_stops_on_a_failed_commit_and_its_next_life_credits_once(
    params, tmp_path, monkeypatch
):
    """The broker's commit fsync for the first batch fails with EIO. It
    writes that batch's error frame, serves no further frame (the second
    batch is already on the wire) and stops: its serve loop raises the
    store's failure. The failed fsync dropped the batch's pages, so the
    disk holds the WAL up to its last fsync that returned; restarted on
    that state dir, the broker credits the storefront's retry once."""
    daemon_system, amounts = _system_with_pending(params)
    pending = daemon_system.merchant(SHOP).pending_deposits()
    state_dir = tmp_path / "broker"
    roster = {name: _identity(name).public for name in (BROKER_NODE, SHOP, "operator")}
    disk = {"eio": False}
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        if disk["eio"]:
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)
        synced.append(os.fstat(fd).st_size)

    monkeypatch.setattr(wal_module.os, "fsync", fsync)

    async def scenario():
        async with _deployment(daemon_system, str(state_dir)) as (broker, shop, operator):
            serving = asyncio.ensure_future(broker.node.serve_until_shutdown())
            calls = _recording_batches(broker)
            disk["eio"] = True
            with pytest.raises(wire.RemoteProtocolError, match="StoreIOError"):
                await operator.request("admin/deposit", {}, timeout=120.0)
            disk["eio"] = False
            with pytest.raises(StoreIOError):
                await asyncio.wait_for(serving, timeout=10.0)
            broker.close_store()
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", broker.node.port)
            os.truncate(state_dir / "shard-00" / "wal.log", synced[-1])
            restarted = BrokerDaemon(
                _system(params),
                _identity(BROKER_NODE),
                roster,
                "127.0.0.1",
                broker.node.port,
                state_dir=str(state_dir),
            )
            restarted.clock.pin(NOW)
            await restarted.node.start()
            try:
                reply = await operator.request("admin/deposit", {}, timeout=120.0)
            finally:
                await restarted.node.stop()
                restarted.close_store()
        return calls, reply, restarted.system.broker

    calls, reply, broker = asyncio.run(scenario())
    assert calls == [_salts(pending[:DEPOSIT_BATCH_SIZE])]
    assert [reply[f"r{index}"]["outcome"] for index in range(COINS)] == ["credited"] * COINS
    assert [as_int(reply[f"r{index}"]["amount"]) for index in range(COINS)] == amounts
    assert broker.merchant_balance(SHOP) == sum(amounts)
    assert broker.ledger.conserved()
    assert daemon_system.merchant(SHOP).pending_deposits() == []


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
