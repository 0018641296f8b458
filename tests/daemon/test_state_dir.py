"""Tests for durable broker state behind the daemon's ``--state-dir``."""

import asyncio
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.persistence import broker_spaces
from repro.core.protocols import run_withdrawal
from repro.daemon import wire
from repro.daemon.demo import read_books, write_deployment
from repro.daemon.service import build_daemon
from repro.net import registry


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


def test_broker_daemon_without_state_dir_stays_memory_only(deployment_dir):
    daemon = build_daemon(deployment_dir, "broker")
    assert daemon.store is None
    assert daemon.recovery is None
    assert daemon.system.broker.journal is None


def test_state_dir_rejected_for_non_broker_roles(deployment_dir, tmp_path):
    with pytest.raises(ValueError, match="broker role"):
        build_daemon(
            deployment_dir, "alice-books", state_dir=str(tmp_path / "state")
        )


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
