"""Tests for durable party state behind the daemon's ``--state-dir``:
the broker, a witness, and a storefront's co-hosted witness."""

import asyncio
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import ServiceUnavailableError
from repro.core.persistence import attach_broker_store, broker_spaces, witness_spaces
from repro.core.protocols import run_withdrawal
from repro.daemon import wire
from repro.daemon.client import SocketTransport
from repro.daemon.config import load_config
from repro.daemon.demo import (
    BROKER,
    CLIENT,
    DAEMONS,
    MERCHANT,
    WITNESS,
    read_books,
    run_on_sim,
    scenario,
    write_deployment,
)
from repro.daemon.keys import load_authorized, load_identity
from repro.daemon.service import build_daemon
from repro.faults.recovery import BackoffPolicy
from repro.net import registry
from repro.store import Store, StoreCorruptError

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def deployment_dir(tmp_path):
    write_deployment(tmp_path / "dep", seed=77)
    return str(tmp_path / "dep")


def test_broker_daemon_journals_and_recovers_across_restart(
    deployment_dir, tmp_path
):
    state_dir = str(tmp_path / "state")
    daemon = build_daemon(deployment_dir, "broker", state_dir=state_dir)
    assert daemon.store is not None
    manifest = json.loads((Path(state_dir) / "store.json").read_text())
    assert (manifest["backend"], manifest["shards"]) == ("memory", 1)
    first_boot = daemon.recovery
    assert first_boot.snapshot_records == 0  # nothing on disk yet
    system = daemon.system
    client = system.new_client()
    run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    expected = broker_spaces(system.broker)
    daemon.close_store()  # daemon process exits

    restarted = build_daemon(deployment_dir, "broker", state_dir=state_dir)
    assert restarted.recovery.replayed_records > 0
    assert broker_spaces(restarted.system.broker) == expected
    restarted.close_store()
    # One journal, replayed into memory: no second copy of the records.
    assert [str(p.relative_to(state_dir)) for p in Path(state_dir).rglob("wal.log")] == [
        "shard-00/wal.log"
    ]
    assert list(Path(state_dir).rglob("data.db")) == []


def test_a_state_dir_in_the_sharded_sqlite_layout_is_refused_untouched(
    deployment_dir, tmp_path
):
    """A broker's state dir written as four SQLite shards (the layout
    daemons used before) is refused by the manifest check before any
    file is opened for writing: no migration, and nothing rewritten."""
    state_dir = tmp_path / "state"
    old = Store(state_dir, backend="sqlite", shards=4)
    system = load_config(deployment_dir).build_system()
    attach_broker_store(system.broker, old)
    run_withdrawal(system.new_client(), system.broker, system.standard_info(25, now=0))
    old.close()

    def files():
        return {
            str(path.relative_to(state_dir)): path.read_bytes()
            for path in state_dir.rglob("*") if path.is_file()
        }

    before = files()
    assert "shard-03/data.db" in before
    with pytest.raises(StoreCorruptError, match=r"created with 4 shard\(s\), reopened with 1"):
        build_daemon(deployment_dir, "broker", state_dir=str(state_dir))
    assert files() == before


def test_broker_daemon_without_state_dir_stays_memory_only(deployment_dir):
    daemon = build_daemon(deployment_dir, "broker")
    assert daemon.store is None
    assert daemon.recovery is None
    assert daemon.system.broker.journal is None


def _commit_at(daemon, merchant_id, now):
    """Withdraw a fresh coin and have ``daemon``'s witness commit to it."""
    system = daemon.system
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=now))
    request, _pending = client.prepare_commitment_request(stored, merchant_id, now)
    return daemon.witness.request_commitment(request, now)


def test_storefront_daemon_restores_its_co_hosted_witness(deployment_dir, tmp_path):
    state_dir = str(tmp_path / "state")
    daemon = build_daemon(deployment_dir, MERCHANT, state_dir=state_dir)
    assert daemon.recovery.snapshot_records == daemon.recovery.replayed_records == 0
    manifest = json.loads((Path(state_dir) / "store.json").read_text())
    assert (manifest["backend"], manifest["shards"]) == ("memory", 1)
    _commit_at(daemon, WITNESS, now=10)
    expected = witness_spaces(daemon.witness)
    assert expected[f"commitments:{MERCHANT}"]
    daemon.close_store()

    restarted = build_daemon(deployment_dir, MERCHANT, state_dir=state_dir)
    assert restarted.recovery.replayed_records > 0
    assert restarted.node.recovery is restarted.recovery
    assert witness_spaces(restarted.witness) == expected
    restarted.close_store()


def test_a_restored_witness_never_reuses_a_signing_nonce(deployment_dir, tmp_path):
    """Both boots rebuild the witness's seeded stream at the same place;
    had the second signed from it, its first signature would share the
    first boot's nonce and the two would give away the witness's key."""
    state_dir = str(tmp_path / "state")
    signatures = []
    for boot in range(2):
        daemon = build_daemon(deployment_dir, WITNESS, state_dir=state_dir)
        # A coin of its own per boot: boot 1's commitment is still open.
        signatures.append(_commit_at(daemon, MERCHANT, now=1000 * boot).signature)
        keypair = daemon.witness.keypair
        daemon.close_store()

    group = keypair.group
    nonce_commitments = {
        pow(group.g, sig.s, group.p) * pow(keypair.public, group.q - sig.e, group.p) % group.p
        for sig in signatures
    }
    assert len(nonce_commitments) == 2
    first, second = signatures
    extracted = (first.s - second.s) * pow(first.e - second.e, -1, group.q) % group.q
    assert extracted != keypair.secret


# ----------------------------------------------------------------------
# OS processes: a witness killed after countersigning, then restarted
# ----------------------------------------------------------------------
def _serve(directory, name, *extra, stdout=subprocess.DEVNULL):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(directory), "--name", name, *extra],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


def test_a_killed_witness_remembers_what_it_signed(tmp_path):
    """The demo's scenario over three processes, its witness on a state
    dir and SIGKILLed once ``witness/sign`` has answered the payment.
    Restarted on the same dir, it says what recovery did, still refuses
    the colluder's replay with an extraction that opens ``A``, and the
    storefront's deposit is credited exactly once — so no witness signed
    twice, and none can be slashed."""
    directory = tmp_path / "dep"
    config = write_deployment(directory, seed=31)
    witness_args = ("--state-dir", str(tmp_path / "witness-state"))
    processes = {
        BROKER: _serve(directory, BROKER),
        WITNESS: _serve(directory, WITNESS, *witness_args),
        MERCHANT: _serve(directory, MERCHANT),
    }
    system = config.build_system()
    transport = SocketTransport(
        load_identity(directory, CLIENT),
        load_authorized(directory),
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )

    async def restart_witness():
        processes[WITNESS].send_signal(signal.SIGKILL)
        await asyncio.to_thread(processes[WITNESS].communicate, None, 30.0)
        processes[WITNESS] = _serve(directory, WITNESS, *witness_args, stdout=subprocess.PIPE)
        lines = [
            (await asyncio.to_thread(processes[WITNESS].stdout.readline)).decode()
            for _ in range(2)
        ]
        # This client's connection died with the witness: a call racing
        # the loss is told so, the next one reconnects.
        with contextlib.suppress(ServiceUnavailableError):
            await transport.call(WITNESS, "admin/ping", {}, timeout=60.0)
        return lines, await transport.call(WITNESS, "admin/stats", {})

    async def run():
        """The scenario's steps as ``run_on_sockets`` runs them, with the
        witness killed and restarted right after the payment step."""
        steps = scenario(system, system.new_client())
        results: list = []
        try:
            while True:
                try:
                    second, source, flow = steps.send(results[-1] if results else None)
                except StopIteration as stop:
                    outcomes = stop.value
                    break
                for name in DAEMONS:
                    await transport.call(name, "admin/clock", {"now": second}, timeout=60.0)
                if source == CLIENT:
                    results.append(await transport.run_flow(source, flow))
                else:
                    flow.close()
                    reply = await transport.call(source, "admin/deposit", {})
                    results.append([reply[f"r{i}"] for i in range(registry.as_int(reply["count"]))])
                if len(results) == 2:  # paid: witness/sign has answered
                    books = read_books(await transport.call(WITNESS, "admin/stats", {}))
                    assert [m for m, _, _ in books["rpc"]] == ["witness/commit", "witness/sign"]
                    lines, stats = await restart_witness()
            again = await transport.call(MERCHANT, "admin/deposit", {})
            for name in DAEMONS:
                await transport.call(name, "admin/shutdown", {})
            return lines, stats, outcomes, again
        finally:
            await transport.close()

    try:
        (recovered, listening), stats, outcomes, again = asyncio.run(run())
        errors = {name: process.communicate(timeout=30.0)[1] for name, process in processes.items()}
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()

    line = re.fullmatch(
        rf"{WITNESS} recovered state: 0 snapshot record\(s\), (\d+) journal "
        r"record\(s\) replayed, 0 torn byte\(s\) truncated, 0 uncommitted "
        r"record\(s\) discarded, replay \d+\.\d ms\n",
        recovered,
    )
    assert line is not None and int(line.group(1)) > 0, recovered
    assert listening.startswith(f"{WITNESS} listening on ")
    assert registry.as_int(stats["recovery"]["replayed"]) == int(line.group(1))
    assert outcomes == run_on_sim(config.build_system())["outcomes"]
    assert outcomes["double_spend_refused"] is True
    assert outcomes["deposited"] == {"count": 1, "outcome": "credited", "amount": 25}
    assert registry.as_int(again["count"]) == 0
    assert errors == {name: b"" for name in processes}


def test_a_killed_broker_answers_a_withdrawal_ticket_once(tmp_path):
    """A durable broker SIGKILLed right after ``withdraw/begin`` answered,
    restarted on the same dir, completes the withdrawal from the ticket
    issued before the kill: the coin verifies and the coin's price sits
    in the broker's account. Killed and restarted once more, it refuses
    a second ``withdraw/complete`` on that ticket, since two answers to
    one signing session give away the broker's blind-signing key."""
    directory = tmp_path / "dep"
    config = write_deployment(directory, seed=31)
    state_dir = tmp_path / "broker-state"
    broker_args = ("--state-dir", str(state_dir))
    processes = {BROKER: _serve(directory, BROKER, *broker_args)}
    system = config.build_system()
    client = system.new_client()
    info = system.standard_info(25, now=0)
    transport = SocketTransport(
        load_identity(directory, CLIENT),
        load_authorized(directory),
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )

    async def restart_broker():
        processes[BROKER].send_signal(signal.SIGKILL)
        await asyncio.to_thread(processes[BROKER].communicate, None, 30.0)
        processes[BROKER] = _serve(directory, BROKER, *broker_args, stdout=subprocess.PIPE)
        recovered = (await asyncio.to_thread(processes[BROKER].stdout.readline)).decode()
        with contextlib.suppress(ServiceUnavailableError):
            await transport.call(BROKER, "admin/ping", {}, timeout=60.0)
        return recovered

    async def run():
        flow = registry.withdrawal_flow(client, BROKER, system.broker.tables, info)
        try:
            begin = flow.send(None)
            opened = await transport.call(BROKER, begin.method, begin.payload, timeout=60.0)
            complete = flow.send(opened)
            assert complete.method == "withdraw/complete"
            first = await restart_broker()
            answered = await transport.call(BROKER, complete.method, complete.payload)
            with pytest.raises(StopIteration) as finished:
                flow.send(answered)
            second = await restart_broker()
            with pytest.raises(wire.RemoteProtocolError) as refused:
                await transport.call(BROKER, complete.method, complete.payload)
            await transport.call(BROKER, "admin/shutdown", {})
            return [first, second], finished.value.value, refused.value
        finally:
            await transport.close()

    try:
        recovered, stored, refused = asyncio.run(run())
        errors = processes[BROKER].communicate(timeout=30.0)[1]
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()

    for line in recovered:
        assert line.startswith(f"{BROKER} recovered state: "), line
        assert " 0 uncommitted record(s) discarded" in line, line
    assert stored.coin.bare.verify_signature(system.params, system.broker.blind_public)
    assert refused.kind == "KeyError"
    assert errors == b""

    daemon = build_daemon(str(directory), BROKER, state_dir=str(state_dir))
    broker, fresh = daemon.system.broker, config.build_system().broker
    daemon.close_store()
    assert not broker_spaces(broker).get("tickets")
    assert broker.ledger.conserved()
    assert broker.ledger.minted - fresh.ledger.minted == 25
    assert (
        broker.ledger.accounts[broker.account].balance
        - fresh.ledger.accounts[fresh.account].balance
    ) == 25


def _stats_after_bind(daemon):
    async def scenario():
        await daemon.node.start()
        try:
            return daemon.node.handlers["admin/stats"]({})
        finally:
            await daemon.node.stop()

    return asyncio.run(scenario())


def test_admin_stats_reports_startup_cpu_and_what_recovery_did(deployment_dir, tmp_path):
    state_dir = str(tmp_path / "state")
    first = build_daemon(deployment_dir, "broker", port=0, state_dir=state_dir)
    client = first.system.new_client()
    run_withdrawal(client, first.system.broker, first.system.standard_info(25, now=0))
    first.close_store()

    restarted = build_daemon(deployment_dir, "broker", port=0, state_dir=state_dir)
    assert restarted.node.startup_cpu_ms == 0.0  # read when the listener binds
    reply = _stats_after_bind(restarted)
    restarted.close_store()
    assert float(reply["startup_cpu_ms"]) > 0.0
    stats = restarted.recovery
    assert stats.replayed_records > 0
    assert reply["recovery"] == {
        "snapshot": stats.snapshot_records,
        "replayed": stats.replayed_records,
        "discarded": stats.discarded_records,
        "torn_bytes": stats.truncated_bytes,
        "replay_ms": f"{stats.replay_ms:.1f}",
    }
    # It crosses the wire, and the demo's byte-parity evidence reads
    # named keys only: the new ones change nothing it compares.
    received = wire.parse_response(wire.response_body("admin/stats", reply))
    assert registry.as_int(received["recovery"]["replayed"]) == stats.replayed_records
    assert float(received["recovery"]["replay_ms"]) >= 0.0
    assert read_books(received) == {"meter": (0, 0, 0, 0), "rpc": []}


def test_admin_stats_of_a_memory_broker_has_no_recovery(deployment_dir):
    reply = _stats_after_bind(build_daemon(deployment_dir, "broker", port=0))
    assert float(reply["startup_cpu_ms"]) > 0.0
    assert "recovery" not in reply


def test_serve_prints_what_recovery_did_before_it_listens(deployment_dir, tmp_path):
    state_dir = str(tmp_path / "state")
    first = build_daemon(deployment_dir, "broker", state_dir=state_dir)
    client = first.system.new_client()
    run_withdrawal(client, first.system.broker, first.system.standard_info(25, now=0))
    first.close_store()

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", deployment_dir,
         "--name", "broker", "--state-dir", state_dir],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        stdout=subprocess.PIPE, text=True,
    )
    try:
        recovered, listening = process.stdout.readline(), process.stdout.readline()
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
    line = re.fullmatch(
        r"broker recovered state: 0 snapshot record\(s\), (\d+) journal "
        r"record\(s\) replayed, 0 torn byte\(s\) truncated, 0 uncommitted "
        r"record\(s\) discarded, replay \d+\.\d ms\n",
        recovered,
    )
    assert line is not None and int(line.group(1)) > 0, recovered
    assert listening.startswith("broker listening on ")
