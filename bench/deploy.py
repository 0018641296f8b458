"""The measured deployment: broker, witness and storefront daemons on loopback.

``repro serve`` can only build the 512-bit test group, so the benchmark
carries its own launcher (``python bench/deploy.py DIR NAME [STATE_DIR]``,
the ``__main__`` block below) that mirrors :func:`repro.daemon.service.serve`
around the paper's 1024-bit group. Everything else here is the operator's
side: free-port netmap, key provisioning, spawning, the patient first
connect, pinned protocol clocks, crash/restart of the broker, and
kill-on-exit teardown.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # launched as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: F401  (importing it puts src/ on sys.path)
from bench.hostspeed import die_with_parent

from repro.core.params import default_params
from repro.core.system import EcashSystem
from repro.daemon.client import SocketTransport
from repro.daemon.config import DeploymentConfig, NodeAddress, load_config
from repro.daemon.keys import load_authorized, load_identity, provision
from repro.daemon.service import BrokerDaemon, MerchantDaemon, WitnessDaemon
from repro.faults.recovery import BackoffPolicy

BROKER = "broker"
#: Witness weights put every coin on this merchant's witness service, so
#: one witness daemon covers the deployment (as in ``daemon/demo.py``).
WITNESS = "alice-books"
STOREFRONTS = ("bob-news", "carol-games")
#: One load-generator connection per core of the 2-core reference host.
CLIENTS = ("client-0", "client-1")
MERCHANT_IDS = (WITNESS,) + STOREFRONTS

#: The one protocol second every daemon clock is pinned to; the load
#: generator stamps its messages with the same instant. Free-running
#: daemon clocks would expire client-built commitments mid-run.
PROTOCOL_NOW = 10

#: ``admin/deposit`` drains every pending transcript in one call; the
#: transport's 15 s default is shorter than a thousand-coin drain.
DRAIN_TIMEOUT = 170.0

_HOST = "127.0.0.1"
#: Daemons start three interpreters on two cores; poll briskly so the
#: connect backoff adds little to ``setup_s``/``recover_s``.
_CONNECT_BACKOFF = BackoffPolicy(base=0.01, factor=1.0, max_delay=0.01, jitter=0.0)
_CONNECT_ATTEMPTS = 3000


#: Cores this process may use, read before anything is pinned.
CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _core_of(name: str) -> int | None:
    """The core a process of the deployment is pinned to (``None``: leave it be).

    The operator's placement, fixed for every run: load generator and
    storefronts on the first core, broker and witness on the second, so
    each phase's two busy parties never share a core. Unpinned, the
    scheduler migrates the four processes between two cores and block
    rates swing by a quarter.
    """
    if len(CORES) < 2:
        return None
    return CORES[1] if name in (BROKER, WITNESS) else CORES[0]


def pin_load_generator() -> int | None:
    """Pin the calling (load-generator) process to its core and return it."""
    core = _core_of(CLIENTS[0])
    if core is not None:
        os.sched_setaffinity(0, {core})
    return core


def build_system(seed: int) -> EcashSystem:
    """The shared system every process of the deployment derives from ``seed``."""
    return EcashSystem(
        merchant_ids=MERCHANT_IDS,
        params=default_params(),
        seed=seed,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((_HOST, 0))
        return probe.getsockname()[1]


class Deployment:
    """One provisioned loopback deployment and its daemon processes.

    Args:
        directory: scratch directory owned by this deployment (keys,
            netmap, per-node stderr files, the broker's state dir).
        seed: deployment seed (party keys and RNG streams).
        storefronts: which storefront daemons to run.
        durable: give the broker a ``state_dir`` (sqlite backend, 4
            shards, ``fsync_every=1`` — the shipped defaults).
    """

    def __init__(
        self,
        directory: Path,
        seed: int,
        storefronts: tuple[str, ...],
        durable: bool,
    ) -> None:
        self.directory = directory
        self.seed = seed
        self.storefronts = storefronts
        self.state_dir = directory / "broker-state" if durable else None
        self.system: EcashSystem | None = None
        self.transports: dict[str, SocketTransport] = {}
        self._config: DeploymentConfig | None = None
        self._processes: dict[str, subprocess.Popen[bytes]] = {}

    @property
    def daemons(self) -> list[str]:
        """Names of the daemon nodes, broker first."""
        return [BROKER, WITNESS, *self.storefronts]

    @property
    def control(self) -> SocketTransport:
        """The transport used for control-plane (``admin/*``) calls."""
        return self.transports[CLIENTS[0]]

    async def start(self) -> None:
        """Provision, spawn every daemon, ping each one, pin the clocks."""
        self.directory.mkdir(parents=True, exist_ok=True)
        roles = {BROKER: "broker", WITNESS: "witness"}
        roles.update({name: "merchant" for name in self.storefronts})
        self._config = DeploymentConfig(
            seed=self.seed,
            merchants=MERCHANT_IDS,
            witness_weights={WITNESS: 1.0},
            nodes={
                name: NodeAddress(_HOST, _free_port(), role)
                for name, role in roles.items()
            },
        )
        provision(self.directory, [*self.daemons, *CLIENTS], self.seed)
        self._config.save(self.directory)
        for name in self.daemons:
            self._spawn(name)
        self.system = build_system(self.seed)
        for client in CLIENTS:
            self.transports[client] = self.new_transport(client)
        for name in self.daemons:
            await self.control.call(name, "admin/ping", {}, timeout=60.0)
            await self.control.call(name, "admin/clock", {"now": PROTOCOL_NOW})

    def new_transport(self, client: str) -> SocketTransport:
        assert self._config is not None
        return SocketTransport(
            load_identity(self.directory, client),
            load_authorized(self.directory),
            self._config.netmap(),
            connect_attempts=_CONNECT_ATTEMPTS,
            connect_backoff=_CONNECT_BACKOFF,
        )

    def _spawn(self, name: str) -> None:
        command = [sys.executable, str(Path(__file__).resolve()), str(self.directory), name]
        if name == BROKER and self.state_dir is not None:
            command.append(str(self.state_dir))
        with open(self.directory / f"{name}.stderr", "ab") as errors:
            process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=errors)
        core = _core_of(name)
        if core is not None:
            os.sched_setaffinity(process.pid, {core})
        self._processes[name] = process

    async def crash_and_restart_broker(self) -> float:
        """``SIGKILL`` the broker, restart it on the same state; seconds to first ping.

        The kill tests process-crash durability only: what the OS page
        cache holds survives, so this is not a power-loss test.
        """
        process = self._processes[BROKER]
        process.send_signal(signal.SIGKILL)
        process.wait()
        for transport in self.transports.values():
            await transport.close()
        started = time.perf_counter()
        self._spawn(BROKER)
        self.transports = {client: self.new_transport(client) for client in CLIENTS}
        await self.control.call(BROKER, "admin/ping", {}, timeout=120.0)
        elapsed = time.perf_counter() - started
        await self.control.call(BROKER, "admin/clock", {"now": PROTOCOL_NOW})
        return elapsed

    async def shutdown(self) -> None:
        """Graceful ``admin/shutdown`` of every daemon, then wait for exit."""
        for name in self.daemons:
            await self.control.call(name, "admin/shutdown", {})
        for process in self._processes.values():
            process.wait(timeout=30.0)

    async def close(self) -> None:
        """Close connections and kill whatever is still running."""
        for transport in self.transports.values():
            await transport.close()
        self.transports = {}
        for process in self._processes.values():
            if process.poll() is None:
                process.kill()
            process.wait()

    def failure_report(self) -> str:
        """Daemon stderr, for surfacing when a run fails (noisy on clean exit)."""
        parts = []
        for name in self.daemons:
            path = self.directory / f"{name}.stderr"
            text = path.read_text(errors="replace").strip() if path.exists() else ""
            if text:
                parts.append(f"--- {name} stderr (last 2000 chars) ---\n{text[-2000:]}")
        return "\n".join(parts)


async def _serve(directory: str, name: str, state_dir: str | None) -> None:
    """Run one daemon until ``admin/shutdown`` (the launcher body)."""
    config = load_config(directory)
    address = config.nodes[name]
    identity = load_identity(directory, name)
    authorized = load_authorized(directory)
    system = build_system(config.seed)
    daemon: BrokerDaemon | WitnessDaemon | MerchantDaemon
    if address.role == "broker":
        daemon = BrokerDaemon(
            system, identity, authorized, address.host, address.port, state_dir=state_dir
        )
    elif address.role == "witness":
        daemon = WitnessDaemon(
            system, name, identity, authorized, address.host, address.port
        )
    else:
        daemon = MerchantDaemon(
            system, name, identity, authorized, address.host, address.port,
            netmap=config.netmap(),
        )
    try:
        await daemon.node.serve_until_shutdown()
    finally:
        if isinstance(daemon, BrokerDaemon):
            daemon.close_store()


if __name__ == "__main__":
    die_with_parent()
    asyncio.run(_serve(sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None))
