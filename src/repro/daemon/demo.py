"""Three real processes, one coin: the loopback deployment demo.

Spawns a broker daemon, a witness daemon (``alice-books``) and a
merchant daemon (``bob-news``) as separate OS processes on 127.0.0.1,
then — acting as ``client-0`` over the authenticated socket transport —
drives the full lifecycle at scripted protocol times:

* ``t=0``   withdraw a 25¢ coin (two broker rounds);
* ``t=10``  pay it at ``bob-news`` (commitment at the witness, payment
  at the storefront, storefront countersigning at the witness);
* ``t=100`` the merchant deposits at the broker (``admin/deposit``,
  which drives the batched deposit flow: one ``deposit/batch`` message);
* ``t=500`` the client replays the *same* coin straight at the witness
  for a colluding storefront (``carol-games``) — and is refused with an
  extraction-based double-spend proof.

The same scenario is then replayed on the discrete-event sim (same
seed, per-party RNG streams, pinned protocol clocks) and the two runs'
:class:`~repro.net.transport.TrafficMeter` books and per-RPC byte logs
are compared entry by entry. They must agree exactly: the daemons frame
the very strings the sim accounts, so any divergence is a bug.

Witness weights put every coin on ``alice-books``, so one witness daemon
covers the deployment (the other storefronts never witness anything).
"""

from __future__ import annotations

import asyncio
import os
import socket
import sys
from pathlib import Path
from typing import Any, Mapping

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

#: Scripted protocol seconds for the four steps.
T_WITHDRAW = 0
T_PAY = 10
T_DEPOSIT = 100
T_DOUBLE_SPEND = 500

_MERCHANT_IDS = (WITNESS, MERCHANT, COLLUDER)
_WEIGHTS = {WITNESS: 1.0}
_DENOMINATION = 25


def _build_system(seed: int) -> EcashSystem:
    return EcashSystem(
        merchant_ids=_MERCHANT_IDS,
        seed=seed,
        independent_rngs=True,
        weights=_WEIGHTS,
    )


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def write_deployment(directory: str | Path, seed: int) -> DeploymentConfig:
    """Provision keys and a loopback netmap for the demo deployment."""
    config = DeploymentConfig(
        seed=seed,
        merchants=_MERCHANT_IDS,
        witness_weights=dict(_WEIGHTS),
        nodes={
            BROKER: NodeAddress("127.0.0.1", _free_port(), "broker"),
            WITNESS: NodeAddress("127.0.0.1", _free_port(), "witness"),
            MERCHANT: NodeAddress("127.0.0.1", _free_port(), "merchant"),
        },
    )
    provision(directory, [BROKER, WITNESS, MERCHANT, CLIENT], seed)
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


async def _wait_ready(transport: SocketTransport, names: list[str]) -> None:
    for name in names:
        await transport.call(name, "admin/ping", {}, timeout=30.0)


async def _pin_clocks(transport: SocketTransport, names: list[str], now: int) -> None:
    for name in names:
        await transport.call(name, "admin/clock", {"now": now})


def _parse_stats(reply: Mapping[str, Any]) -> dict[str, Any]:
    meter = tuple(
        registry.as_int(reply[key])
        for key in ("sent", "received", "messages_sent", "messages_received")
    )
    rpc: list[tuple[str, int, int]] = []
    index = 0
    while f"l{index}" in reply:
        entry = reply[f"l{index}"]
        rpc.append(
            (
                str(entry["method"]),
                registry.as_int(entry["req"]),
                registry.as_int(entry["resp"]),
            )
        )
        index += 1
    return {"meter": meter, "rpc": rpc}


async def _run_daemon_scenario(directory: Path, seed: int) -> dict[str, Any]:
    """The four scripted steps over real sockets; returns the evidence."""
    config = write_deployment(directory, seed)
    # One-shot demo driver: blocking system construction happens before
    # any protocol traffic is in flight, so stalling the loop is fine.
    system = _build_system(seed)  # lint: ignore[async-safety]
    client = system.new_client()
    identity = load_identity(directory, CLIENT)
    authorized = load_authorized(directory)
    # Cold daemon start-up (three interpreters on one core) can take many
    # seconds; be patient on the first connection to each.
    transport = SocketTransport(
        identity,
        authorized,
        config.netmap(),
        connect_attempts=60,
        connect_backoff=BackoffPolicy(base=0.1, factor=1.25, max_delay=1.0),
    )
    daemons = list(config.nodes)
    processes = await _spawn_daemons(directory, config)
    outcomes: dict[str, Any] = {}
    try:
        await _wait_ready(transport, daemons)

        witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]

        # t=0: withdraw.
        await _pin_clocks(transport, daemons, T_WITHDRAW)
        info = system.standard_info(_DENOMINATION, now=T_WITHDRAW)
        stored = await transport.run_flow(
            CLIENT,
            registry.withdrawal_flow(client, BROKER, system.broker.tables, info),
        )
        outcomes["withdrawn"] = stored.coin.denomination

        # t=10: pay at the storefront.
        await _pin_clocks(transport, daemons, T_PAY)
        amount = await transport.run_flow(
            CLIENT,
            registry.payment_flow(
                client, stored, MERCHANT, witness_public, lambda: T_PAY
            ),
        )
        outcomes["paid"] = amount

        # t=100: the merchant settles with the broker.
        await _pin_clocks(transport, daemons, T_DEPOSIT)
        deposit = await transport.call(MERCHANT, "admin/deposit", {})
        outcomes["deposited"] = {
            "count": registry.as_int(deposit["count"]),
            "outcome": str(deposit["r0"]["outcome"]),
            "amount": registry.as_int(deposit["r0"]["amount"]),
        }

        # t=500: replay the spent coin straight at the witness.
        await _pin_clocks(transport, daemons, T_DOUBLE_SPEND)
        client.wallet.add(stored)
        try:
            await transport.run_flow(
                CLIENT,
                registry.direct_spend_flow(
                    client, stored, COLLUDER, witness_public, lambda: T_DOUBLE_SPEND
                ),
            )
        except DoubleSpendError as refusal:
            outcomes["double_spend_refused"] = bool(
                refusal.proof.verify(system.params, stored.coin)
            )
        else:
            outcomes["double_spend_refused"] = False

        books: dict[str, Any] = {
            CLIENT: {
                "meter": transport.meter.snapshot()
                + (transport.meter.messages_sent, transport.meter.messages_received),
                "rpc": [],
            }
        }
        for name in daemons:
            books[name] = _parse_stats(
                await transport.call(name, "admin/stats", {})
            )
        for name in daemons:
            await transport.call(name, "admin/shutdown", {})
    finally:
        await transport.close()
        for process in processes:
            try:
                await asyncio.wait_for(process.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
    return {"outcomes": outcomes, "books": books}


def _advance_to(dep: NetworkDeployment, target: float) -> None:
    dep.sim.schedule(target - dep.sim.now, lambda: None)
    dep.sim.run()


def run_sim_twin(seed: int) -> dict[str, Any]:
    """Replay the demo scenario on the sim backend; returns the evidence.

    Instant compute and a millisecond loopback mesh keep each step's
    simulated drift far below one protocol second, so the pinned protocol
    times of the daemon run and ``int(sim.now)`` agree at every message.
    """
    system = _build_system(seed)
    dep = NetworkDeployment(
        system,
        cost_model=instant_profile(),
        latency=uniform_mesh(list(Region), one_way=0.001, jitter=0.0),
        seed=0,
    )
    client = dep.add_client(CLIENT)
    outcomes: dict[str, Any] = {}

    info = system.standard_info(_DENOMINATION, now=T_WITHDRAW)
    stored = dep.run(dep.withdrawal_process(CLIENT, info))
    outcomes["withdrawn"] = stored.coin.denomination

    _advance_to(dep, float(T_PAY))
    receipt = dep.run(dep.payment_process(CLIENT, stored, MERCHANT))
    outcomes["paid"] = receipt.amount

    _advance_to(dep, float(T_DEPOSIT))
    results = dep.run(dep.batch_deposit_process(MERCHANT))
    outcomes["deposited"] = {
        "count": len(results),
        "outcome": str(results[0]["outcome"]),
        "amount": registry.as_int(results[0]["amount"]),
    }

    _advance_to(dep, float(T_DOUBLE_SPEND))
    client.wallet.add(stored)
    witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]
    try:
        dep.run(
            dep.run_flow(
                CLIENT,
                registry.direct_spend_flow(
                    client, stored, COLLUDER, witness_public, dep.now
                ),
            )
        )
        outcomes["double_spend_refused"] = False
    except DoubleSpendError as refusal:
        outcomes["double_spend_refused"] = bool(
            refusal.proof.verify(system.params, stored.coin)
        )

    books: dict[str, Any] = {}
    for name in (CLIENT, BROKER, WITNESS, MERCHANT):
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


def compare_runs(daemon_run: Mapping[str, Any], sim_run: Mapping[str, Any]) -> list[str]:
    """Line-by-line discrepancies between the two runs (empty = match)."""
    problems: list[str] = []
    if daemon_run["outcomes"] != sim_run["outcomes"]:
        problems.append(
            f"outcomes differ: daemon={daemon_run['outcomes']} sim={sim_run['outcomes']}"
        )
    for name in (CLIENT, BROKER, WITNESS, MERCHANT):
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
    """Run the full demo: daemons, sim twin, comparison.

    Returns a report with both runs' outcomes and books, plus
    ``problems`` (empty when the backends agree byte for byte).
    """
    daemon_run = asyncio.run(_run_daemon_scenario(Path(directory), seed))
    sim_run = run_sim_twin(seed)
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
    for name in (CLIENT, BROKER, WITNESS, MERCHANT):
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
    "MERCHANT",
    "WITNESS",
    "compare_runs",
    "format_report",
    "run_loopback_demo",
    "run_sim_twin",
    "write_deployment",
]
