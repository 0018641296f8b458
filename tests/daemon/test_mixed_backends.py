"""A deployment in which one host lacks libgmp must interoperate.

Broker, witness and storefront run as OS processes; in the second run the
witness alone is started with ``REPRO_BACKEND=python``. The demo's
scenario — withdraw, pay, the deposit drain and a refused replay —
succeeds either way, every node moves the same bytes, and
``admin/stats`` says which arithmetic each daemon runs — the only place a
silently fallen-back node shows — and what its perf engine holds: no
daemon has built a fixed-base table when it first answers, and every
one, whatever its backend, has built some after the scenario.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto import backend
from repro.daemon.client import SocketTransport
from repro.daemon.demo import (
    BROKER,
    CLIENT,
    MERCHANT,
    WITNESS,
    read_books,
    run_on_sockets,
    write_deployment,
)
from repro.daemon.keys import load_authorized, load_identity
from repro.faults.recovery import BackoffPolicy
from repro.net.registry import as_int

SRC = Path(__file__).resolve().parents[2] / "src"


def _serve(directory: Path, name: str, forced_backend: str | None) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_BACKEND", None)
    if forced_backend is not None:
        env["REPRO_BACKEND"] = forced_backend
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(directory), "--name", name],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _lifecycle(directory: Path, witness_backend: str | None) -> dict[str, dict]:
    """The demo's scenario; returns each daemon's books and backend report."""
    directory.mkdir()
    config = write_deployment(directory, seed=23)
    processes = {
        BROKER: _serve(directory, BROKER, None),
        WITNESS: _serve(directory, WITNESS, witness_backend),
        MERCHANT: _serve(directory, MERCHANT, None),
    }
    system = config.build_system()
    transport = SocketTransport(
        load_identity(directory, CLIENT),
        load_authorized(directory),
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )
    reports: dict[str, dict] = {}
    first_tables: dict[str, int] = {}

    async def drive() -> None:
        try:
            for name in processes:
                await transport.call(name, "admin/ping", {}, timeout=60.0)
                stats = await transport.call(name, "admin/stats", {})
                first_tables[name] = as_int(stats["perf"]["fixed-base-tables"])
            run = await run_on_sockets(transport, system)
            assert run["outcomes"] == {
                "withdrawn": 25,
                "paid": 25,
                "deposited": {"count": 1, "outcome": "credited", "amount": 25},
                "double_spend_refused": True,
            }

            for name in processes:
                stats = await transport.call(name, "admin/stats", {})
                reports[name] = {
                    **read_books(stats),
                    "backend": str(stats["backend"]),
                    "backend_version": str(stats["backend_version"]),
                    "first_tables": first_tables[name],
                    "tables": as_int(stats["perf"]["fixed-base-tables"]),
                }
            for name in processes:
                await transport.call(name, "admin/shutdown", {})
        finally:
            await transport.close()

    try:
        asyncio.run(drive())
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
    return reports


def test_a_python_backend_witness_interoperates_with_default_backend_peers(tmp_path: Path):
    default = backend.available()[0]
    if default == backend.BACKEND_PYTHON:
        pytest.skip("this host has one backend; nothing to mix")
    uniform = _lifecycle(tmp_path / "uniform", None)
    mixed = _lifecycle(tmp_path / "mixed", backend.BACKEND_PYTHON)

    assert {name: report["backend"] for name, report in uniform.items()} == {
        BROKER: default,
        WITNESS: default,
        MERCHANT: default,
    }
    assert {name: report["backend"] for name, report in mixed.items()} == {
        BROKER: default,
        WITNESS: backend.BACKEND_PYTHON,
        MERCHANT: default,
    }
    assert all(report["backend_version"][0].isdigit() for report in uniform.values())
    assert mixed[WITNESS]["backend_version"] == ""
    for run in (uniform, mixed):
        # Set-up (keys, the signed witness table) builds no table: each
        # is built by the first protocol operations that use its base.
        assert all(report["first_tables"] == 0 for report in run.values()), run
        assert all(report["tables"] >= 1 for report in run.values()), run

    for name in uniform:
        assert mixed[name]["meter"] == uniform[name]["meter"], name
        assert mixed[name]["rpc"] == uniform[name]["rpc"], name
