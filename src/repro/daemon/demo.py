"""Three real processes, one coin: the loopback deployment demo.

One scenario, written once as a generator of protocol flows, drives the
full lifecycle at scripted protocol times:

* ``t=0``   ``client-0`` withdraws a 25¢ coin (two broker rounds);
* ``t=10``  pays it at ``bob-news`` (commitment at the witness, payment
  at the storefront, storefront countersigning at the witness);
* ``t=100`` the storefront deposits at the broker (the batched deposit
  flow: one ``deposit/batch`` message);
* ``t=500`` the client replays the *same* coin straight at the witness
  for a colluding storefront (``carol-games``) — and is refused with an
  extraction-based double-spend proof.

Two drivers run it. :func:`run_on_sockets` talks to a broker daemon, a
witness daemon (``alice-books``) and a storefront daemon (``bob-news``)
running as separate OS processes on 127.0.0.1; :func:`run_on_sim` runs
the same flows on the discrete-event sim (same seed, per-party RNG
streams). The two runs' :class:`~repro.net.transport.TrafficMeter` books
and per-RPC byte logs are compared entry by entry. They must agree
exactly: the daemons frame the very strings the sim accounts, so any
divergence is a bug.

Witness weights put every coin on ``alice-books``, so one witness daemon
covers the deployment (the other storefronts never witness anything).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import sys
from pathlib import Path
from typing import Any, Generator, Mapping

from repro.core.client import Client
from repro.core.exceptions import DoubleSpendError
from repro.core.system import EcashSystem
from repro.faults.recovery import BackoffPolicy
from repro.net import registry
from repro.net.costmodel import instant_profile
from repro.net.latency import Region, uniform_mesh
from repro.net.services import NetworkDeployment
from repro.daemon.client import SocketTransport
from repro.daemon.config import DeploymentConfig, NodeAddress
from repro.daemon.keys import load_authorized, load_identity, provision

#: The three daemon processes plus the connecting client.
BROKER = "broker"
WITNESS = "alice-books"
MERCHANT = "bob-news"
#: The colluding storefront named in the double-spend attempt; it is a
#: protocol-level *name*, not a running process — the attacking client
#: plays its storefront locally and only contacts the witness.
COLLUDER = "carol-games"
CLIENT = "client-0"
DAEMONS = (BROKER, WITNESS, MERCHANT)

#: Scripted protocol seconds for the four steps.
T_WITHDRAW = 0
T_PAY = 10
T_DEPOSIT = 100
T_DOUBLE_SPEND = 500

_MERCHANT_IDS = (WITNESS, MERCHANT, COLLUDER)
_DENOMINATION = 25


def _free_ports(count: int) -> list[int]:
    """``count`` distinct free loopback ports.

    Every probe stays bound until all are drawn: a closed probe's port
    is free again, and the kernel may hand it to the next one.
    """
    with contextlib.ExitStack() as stack:
        probes = [stack.enter_context(socket.socket()) for _ in range(count)]
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        return [probe.getsockname()[1] for probe in probes]


def write_deployment(directory: str | Path, seed: int) -> DeploymentConfig:
    """Provision keys and a loopback netmap for the demo deployment."""
    broker_port, witness_port, merchant_port = _free_ports(3)
    config = DeploymentConfig(
        seed=seed,
        merchants=_MERCHANT_IDS,
        witness_weights={WITNESS: 1.0},
        nodes={
            BROKER: NodeAddress("127.0.0.1", broker_port, "broker"),
            WITNESS: NodeAddress("127.0.0.1", witness_port, "witness"),
            MERCHANT: NodeAddress("127.0.0.1", merchant_port, "merchant"),
        },
    )
    provision(directory, [*DAEMONS, CLIENT], seed)
    config.save(directory)
    return config


async def _spawn_daemons(
    directory: Path, config: DeploymentConfig
) -> list[asyncio.subprocess.Process]:
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    processes = []
    for name in config.nodes:
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--dir",
            str(directory),
            "--name",
            name,
            env=env,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        processes.append(process)
    return processes


#: One scenario step: at this protocol second, this party runs this flow.
Step = tuple[int, str, registry.Flow]


def _refusal(flow: registry.Flow) -> registry.Flow:
    """Run ``flow``; its result is the double-spend refusal, or ``None``."""
    try:
        yield from flow
    except DoubleSpendError as refusal:
        return refusal
    return None


def scenario(
    system: EcashSystem, client: Client
) -> Generator[Step, Any, dict[str, Any]]:
    """The demo's four steps, for any transport; returns the outcomes.

    Yields ``(protocol second, source, flow)`` and is sent the flow's
    result. Every party's clock reads the step's second while it runs.
    """
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]
    outcomes: dict[str, Any] = {}

    info = system.standard_info(_DENOMINATION, now=T_WITHDRAW)
    stored = yield T_WITHDRAW, CLIENT, registry.withdrawal_flow(
        client, BROKER, system.broker.tables, info
    )
    outcomes["withdrawn"] = stored.coin.denomination

    outcomes["paid"] = yield T_PAY, CLIENT, registry.payment_flow(
        client, stored, MERCHANT, witness_public, lambda: T_PAY
    )

    results = yield T_DEPOSIT, MERCHANT, registry.batch_deposit_flow(
        system.merchant(MERCHANT), MERCHANT, BROKER
    )
    outcomes["deposited"] = {
        "count": len(results),
        "outcome": str(results[0]["outcome"]),
        "amount": registry.as_int(results[0]["amount"]),
    }

    # The colluder replays the spent coin straight at the witness.
    client.wallet.add(stored)
    refusal = yield T_DOUBLE_SPEND, CLIENT, _refusal(
        registry.direct_spend_flow(
            client, stored, COLLUDER, witness_public, lambda: T_DOUBLE_SPEND
        )
    )
    outcomes["double_spend_refused"] = refusal is not None and bool(
        refusal.proof.verify(system.params, stored.coin)
    )
    return outcomes


def read_books(stats: Mapping[str, Any]) -> dict[str, Any]:
    """A daemon's books from its ``admin/stats`` reply: meter and RPC log."""
    meter = tuple(
        registry.as_int(stats[key])
        for key in ("sent", "received", "messages_sent", "messages_received")
    )
    rpc: list[tuple[str, int, int]] = []
    index = 0
    while f"l{index}" in stats:
        entry = stats[f"l{index}"]
        rpc.append(
            (
                str(entry["method"]),
                registry.as_int(entry["req"]),
                registry.as_int(entry["resp"]),
            )
        )
        index += 1
    return {"meter": meter, "rpc": rpc}


def run_on_sim(system: EcashSystem) -> dict[str, Any]:
    """The scenario on the discrete-event sim; returns outcomes and books.

    Instant compute and a millisecond loopback mesh keep each step's
    simulated drift far below one protocol second, so ``int(sim.now)``
    reads the step's second at every message, as the pinned daemon
    clocks do.
    """
    dep = NetworkDeployment(
        system,
        cost_model=instant_profile(),
        latency=uniform_mesh(list(Region), one_way=0.001, jitter=0.0),
        seed=0,
    )
    steps = scenario(system, dep.add_client(CLIENT))
    result: Any = None
    while True:
        try:
            second, source, flow = steps.send(result)
        except StopIteration as stop:
            outcomes = stop.value
            break
        dep.sim.schedule(second - dep.sim.now, lambda: None)
        dep.sim.run()
        result = dep.run(dep.run_flow(source, flow))

    books: dict[str, Any] = {}
    for name in (CLIENT, *DAEMONS):
        node = dep.network.node(name)
        requests = [
            (e.method, e.size_bytes)
            for e in dep.network.trace.entries
            if e.destination == name and e.kind == "request"
        ]
        responses = [
            (e.method, e.size_bytes)
            for e in dep.network.trace.entries
            if e.source == name and e.kind in ("response", "error")
        ]
        books[name] = {
            "meter": (
                node.meter.sent_bytes,
                node.meter.received_bytes,
                node.meter.messages_sent,
                node.meter.messages_received,
            ),
            "rpc": [
                (method, req_size, resp_size)
                for (method, req_size), (_, resp_size) in zip(requests, responses)
            ],
        }
    return {"outcomes": outcomes, "books": books}


async def run_on_sockets(
    transport: SocketTransport, system: EcashSystem
) -> dict[str, Any]:
    """The scenario against running daemons; returns outcomes and books.

    ``transport`` speaks for ``client-0`` and every daemon answers it.
    Each step pins every daemon's clock to its second first. A client
    flow runs here; the storefront's flow runs in the storefront, whose
    ``admin/deposit`` drives that same batch deposit flow.
    """
    steps = scenario(system, system.new_client())
    result: Any = None
    while True:
        try:
            second, source, flow = steps.send(result)
        except StopIteration as stop:
            outcomes = stop.value
            break
        for name in DAEMONS:
            await transport.call(name, "admin/clock", {"now": second})
        if source == CLIENT:
            result = await transport.run_flow(source, flow)
        else:
            flow.close()
            reply = await transport.call(source, "admin/deposit", {})
            result = [reply[f"r{index}"] for index in range(registry.as_int(reply["count"]))]

    meter = transport.meter
    books: dict[str, Any] = {
        CLIENT: {
            "meter": meter.snapshot() + (meter.messages_sent, meter.messages_received),
            "rpc": [],
        }
    }
    for name in DAEMONS:
        books[name] = read_books(await transport.call(name, "admin/stats", {}))
    return {"outcomes": outcomes, "books": books}


async def _run_on_daemons(
    directory: Path, config: DeploymentConfig, system: EcashSystem
) -> dict[str, Any]:
    """Spawn the three daemons, run the scenario on them, shut them down."""
    # Cold daemon start-up (three interpreters on one core) can take many
    # seconds; be patient on the first connection to each.
    transport = SocketTransport(
        load_identity(directory, CLIENT),
        load_authorized(directory),
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )
    processes = await _spawn_daemons(directory, config)
    try:
        for name in DAEMONS:
            await transport.call(name, "admin/ping", {}, timeout=30.0)
        run = await run_on_sockets(transport, system)
        for name in DAEMONS:
            await transport.call(name, "admin/shutdown", {})
    finally:
        await transport.close()
        for process in processes:
            try:
                await asyncio.wait_for(process.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
    return run


def compare_runs(daemon_run: Mapping[str, Any], sim_run: Mapping[str, Any]) -> list[str]:
    """Line-by-line discrepancies between the two runs (empty = match)."""
    problems: list[str] = []
    if daemon_run["outcomes"] != sim_run["outcomes"]:
        problems.append(
            f"outcomes differ: daemon={daemon_run['outcomes']} sim={sim_run['outcomes']}"
        )
    for name in (CLIENT, *DAEMONS):
        daemon_books = daemon_run["books"][name]
        sim_books = sim_run["books"][name]
        if daemon_books["meter"] != sim_books["meter"]:
            problems.append(
                f"{name}: meter daemon={daemon_books['meter']} sim={sim_books['meter']}"
            )
        if name != CLIENT and daemon_books["rpc"] != sim_books["rpc"]:
            problems.append(
                f"{name}: per-RPC log daemon={daemon_books['rpc']} sim={sim_books['rpc']}"
            )
    return problems


def run_loopback_demo(directory: str | Path, seed: int = 2026) -> dict[str, Any]:
    """Run the scenario on three daemons and on the sim, then compare.

    Returns a report with both runs' outcomes and books, plus
    ``problems`` (empty when the transports agree byte for byte).
    """
    config = write_deployment(directory, seed)
    daemon_run = asyncio.run(
        _run_on_daemons(Path(directory), config, config.build_system())
    )
    sim_run = run_on_sim(config.build_system())
    return {
        "daemon": daemon_run,
        "sim": sim_run,
        "problems": compare_runs(daemon_run, sim_run),
    }


def format_report(report: Mapping[str, Any]) -> str:
    """Human-readable summary of a demo report."""
    lines = ["loopback daemon demo — withdraw/pay/deposit/double-spend", ""]
    outcomes = report["daemon"]["outcomes"]
    lines.append(f"  withdrawn: {outcomes.get('withdrawn')}¢")
    lines.append(f"  paid:      {outcomes.get('paid')}¢ at {MERCHANT}")
    deposited = outcomes.get("deposited", {})
    lines.append(
        f"  deposited: {deposited.get('amount')}¢ ({deposited.get('outcome')})"
    )
    lines.append(
        "  double-spend: refused with verified proof"
        if outcomes.get("double_spend_refused")
        else "  double-spend: NOT REFUSED — protocol failure"
    )
    lines.append("")
    lines.append(f"  {'node':<12} {'sent':>8} {'received':>9}  (bytes, daemon == sim)")
    for name in (CLIENT, *DAEMONS):
        sent, received, _, _ = report["daemon"]["books"][name]["meter"]
        lines.append(f"  {name:<12} {sent:>8} {received:>9}")
    problems = report["problems"]
    lines.append("")
    if problems:
        lines.append("BYTE ACCOUNTING MISMATCH:")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append("byte accounting matches the sim transport exactly.")
    return "\n".join(lines)


__all__ = [
    "BROKER",
    "CLIENT",
    "COLLUDER",
    "DAEMONS",
    "MERCHANT",
    "WITNESS",
    "compare_runs",
    "format_report",
    "read_books",
    "run_loopback_demo",
    "run_on_sim",
    "run_on_sockets",
    "scenario",
    "write_deployment",
]
