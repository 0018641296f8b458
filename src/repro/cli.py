"""Command-line interface: demos and experiment reruns.

Usage::

    python -m repro demo                 # full coin lifecycle
    python -m repro demo --metrics       # ... plus the telemetry snapshot
    python -m repro attack               # double-spend attempt, refused
    python -m repro table1               # regenerate Table 1
    python -m repro table2 --trials 20   # regenerate Table 2 (simulated)
    python -m repro rounds               # message rounds per protocol
    python -m repro trace                # Figure 1 message flow
    python -m repro wallet <file>        # inspect a wallet file
    python -m repro metrics              # instrumented run, telemetry dump
    python -m repro chaos --quick        # fault-injection suite, 3 seeds
    python -m repro campaign --quick     # seeded large-overlay campaign
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import obs
from repro.core.exceptions import DoubleSpendError


def _print_metrics() -> None:
    """Print the collected telemetry snapshot (console format)."""
    print()
    print(obs.export_console())


def _exercise_network_telemetry(seed: int) -> None:
    """Drive the gossip overlay and Chord DHT so network telemetry exists.

    Runs a small anti-entropy convergence (overlay message counters) and a
    batch of replicated DHT puts/lookups (hop-count histograms) on the fast
    test group; the protocol demo itself never touches the P2P layer, so
    this is what populates the overlay/hop sections of the snapshot.
    """
    import random

    from repro.core.params import test_params
    from repro.core.witness_ranges import build_table
    from repro.crypto.schnorr import SchnorrKeyPair
    from repro.net.chord import ChordRing, chord_id
    from repro.net.costmodel import instant_profile
    from repro.net.latency import Region, uniform_mesh
    from repro.net.node import Network, Node
    from repro.net.overlay import GossipOverlay, publish_directory
    from repro.net.sim import Simulator

    params = test_params()
    rng = random.Random(seed)
    members = [f"shop-{index:02d}" for index in range(8)]
    sim = Simulator()
    network = Network(
        sim,
        uniform_mesh([Region.LOCAL], one_way=0.01, seed=seed),
        instant_profile(),
        seed=seed,
    )
    for member in members:
        network.register(Node(member, Region.LOCAL))
    broker_key = SchnorrKeyPair.generate(params.group, rng)
    table = build_table(params, broker_key, 1, {m: 1.0 for m in members}, rng=rng)
    keys = {
        member: SchnorrKeyPair.generate(params.group, rng).public for member in members
    }
    directory = publish_directory(params, broker_key, 1, table, keys, rng)
    overlay = GossipOverlay(
        params, network, broker_key.public, members, interval=1.0, fanout=2, seed=seed
    )
    overlay.seed(directory, seed_members=members[:2])
    overlay.start()
    sim.run(until=30.0)

    ring = ChordRing([f"peer-{index:02d}" for index in range(32)])
    for index in range(24):
        key = chord_id(f"spent-coin-{index}")
        ring.put(key, f"transcript-{index}")
        ring.get(key)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.protocols import run_deposit, run_payment, run_withdrawal
    from repro.core.system import EcashSystem

    if args.metrics:
        obs.enable()
    system = EcashSystem(seed=args.seed)
    client = system.new_client()
    info = system.standard_info(args.denomination, now=0)
    stored = run_withdrawal(client, system.broker, info)
    print(f"withdrew {info.short_label()} coin; witness = {stored.coin.witness_id}")
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    run_payment(client, stored, system.merchant(merchant_id), system.witness_of(stored), now=10)
    print(f"paid {merchant_id} (witness countersigned)")
    results = run_deposit(system.merchant(merchant_id), system.broker, now=100)
    print(
        f"deposited: {results[0].outcome.value}; "
        f"{merchant_id} balance = {system.broker.merchant_balance(merchant_id)} cents; "
        f"ledger conserved = {system.ledger.conserved()}"
    )
    if args.metrics:
        _exercise_network_telemetry(args.seed)
        _print_metrics()
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.core.protocols import run_payment, run_withdrawal
    from repro.core.system import EcashSystem

    if args.metrics:
        obs.enable()
    system = EcashSystem(seed=args.seed)
    attacker = system.new_client()
    stored = run_withdrawal(attacker, system.broker, system.standard_info(25, now=0))
    shops = [m for m in system.merchant_ids if m != stored.coin.witness_id]
    witness = system.witness_of(stored)
    run_payment(attacker, stored, system.merchant(shops[0]), witness, now=10)
    print(f"spend #1 at {shops[0]}: accepted")
    attacker.wallet.add(stored)
    try:
        run_payment(attacker, stored, system.merchant(shops[1]), witness, now=500)
        print("spend #2: ACCEPTED — this is a bug")
        return 1
    except DoubleSpendError as refusal:
        print(f"spend #2 at {shops[1]}: refused in real time")
        print(f"  proof verifies: {refusal.proof.verify(system.params, stored.coin)}")
        print(f"  extracted x == attacker's secret: {refusal.proof.x == stored.secrets.x}")
    if args.metrics:
        _print_metrics()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.opcount import measure_table1, render_table1

    rows = measure_table1()
    print(render_table1(rows))
    return 0 if all(row.matches for row in rows) else 1


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.payment_bench import run_payment_trials
    from repro.core.params import default_params, test_params

    if args.metrics:
        obs.enable()
    params = test_params() if args.fast else default_params()
    result = run_payment_trials(trials=args.trials, params=params, seed=args.seed)
    print(result.render())
    if args.metrics:
        _print_metrics()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.protocols import run_deposit, run_payment, run_withdrawal
    from repro.core.system import EcashSystem

    obs.enable()
    system = EcashSystem(seed=args.seed)
    client = system.new_client()

    # Honest lifecycle: withdraw, pay, deposit.
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    run_payment(client, stored, system.merchant(merchant_id), system.witness_of(stored), now=10)
    run_deposit(system.merchant(merchant_id), system.broker, now=100)

    # Double-spend attempt: exercises the detection counter.
    attacker = system.new_client()
    cheat = run_withdrawal(attacker, system.broker, system.standard_info(25, now=0))
    shops = [m for m in system.merchant_ids if m != cheat.coin.witness_id]
    witness = system.witness_of(cheat)
    run_payment(attacker, cheat, system.merchant(shops[0]), witness, now=10)
    attacker.wallet.add(cheat)
    try:
        run_payment(attacker, cheat, system.merchant(shops[1]), witness, now=500)
        return 1  # pragma: no cover - detection failure would be a bug
    except DoubleSpendError:
        pass

    # Network layer: gossip convergence + DHT lookups.
    _exercise_network_telemetry(args.seed)

    # Publish the perf engine's cache/table sizes as gauges.
    from repro import perf

    perf.export_metrics()

    if args.format == "json":
        print(obs.export_json())
    elif args.format == "prom":
        print(obs.export_prometheus())
    else:
        print(obs.export_console())
    return 0


def _cmd_rounds(args: argparse.Namespace) -> int:
    from repro.analysis.payment_bench import PAPER_ROUNDS, measure_message_rounds
    from repro.analysis.tables import render_table

    rounds = measure_message_rounds()
    print(
        render_table(
            "Message rounds per protocol",
            ["Protocol", "Measured", "Paper"],
            [[name, rounds[name], PAPER_ROUNDS[name]] for name in PAPER_ROUNDS],
        )
    )
    return 0 if rounds == PAPER_ROUNDS else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.system import EcashSystem
    from repro.net.services import NetworkDeployment

    system = EcashSystem(seed=args.seed)
    deployment = NetworkDeployment(system, seed=args.seed)
    deployment.add_client("client-0")
    stored = deployment.run(
        deployment.withdrawal_process("client-0", system.standard_info(25, now=0))
    )
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    deployment.run(deployment.payment_process("client-0", stored, merchant_id))
    deployment.run(deployment.deposit_process(merchant_id))
    print("Figure 1 message flow (simulated PlanetLab geography):")
    for entry in deployment.network.trace.entries:
        arrow = "->" if entry.kind == "request" else "<-"
        print(
            f"  t={entry.time*1000:8.1f}ms  {entry.source:>12} {arrow} "
            f"{entry.destination:<12} {entry.method:<18} {entry.size_bytes:>5}B "
            f"({entry.kind})"
        )
    return 0


def _cmd_wallet(args: argparse.Namespace) -> int:
    from repro.core.client import Wallet

    wallet = Wallet.load(args.path)
    print(f"{len(wallet.coins)} coin(s), total {wallet.total_value()} cents")
    for index, stored in enumerate(wallet.coins):
        info = stored.coin.info
        print(
            f"  [{index}] {info.short_label()}  witness={stored.coin.witness_id}  "
            f"spendable-until={info.soft_expiry}  void-after={info.hard_expiry}"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import SCENARIOS, render_report, run_suite

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    names = args.scenario or None
    if names:
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.metrics:
        obs.enable()
    seed_count = 3 if args.quick else args.seeds
    seeds = range(args.seed, args.seed + seed_count)
    results = run_suite(names, seeds)
    report = render_report(results)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"(written to {args.out})")
    else:
        print(report, end="")
    if args.metrics:
        _print_metrics()
    return 0 if all(result.ok for result in results) else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.scale.campaign import CampaignConfig, run_campaign

    nodes = args.nodes if args.nodes is not None else (200 if args.quick else 10_000)
    duration = (
        args.duration if args.duration is not None else (10.0 if args.quick else 60.0)
    )
    config = CampaignConfig(seed=args.seed, nodes=nodes, duration=duration)
    if args.metrics:
        obs.enable()

    failures: list[str] = []
    reports = []
    for run in range(max(1, args.runs)):
        reports.append(run_campaign(config))
    report = reports[0]
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        failures.append(f"digest differs across {len(reports)} runs: {sorted(digests)}")
    elif len(reports) > 1:
        report["byte_identity_runs"] = len(reports)

    results = report["results"]
    violations = results.get("protocol", {}).get("violations", 0)
    if violations:
        failures.append(f"{violations} safety-invariant violation(s)")

    print(
        f"campaign seed={config.seed} nodes={config.nodes} "
        f"duration={config.duration}s"
    )
    hops = results["lookups"]["hops"]
    print(
        f"  lookups {results['lookups']['count']}: mean hops {hops['mean']} "
        f"(p99 {hops['p99']}, bound {results['lookups']['mean_hops_bound']}, "
        f"within={results['lookups']['within_bound']})"
    )
    print(
        f"  membership: {results['membership']['joins']} joins, "
        f"{results['membership']['leaves']} leaves, "
        f"{results['membership']['rebalance_bytes']} rebalance bytes"
    )
    print(
        f"  engine: table_builds={report['engine']['table_builds']} "
        f"repair_ops={report['engine']['ring_repair_ops_total']} "
        f"wall={report['engine']['wall_seconds']}s"
    )
    print(f"  digest {report['digest']}")
    if args.metrics:
        _print_metrics()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"(written to {args.out})")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import engine as lint_engine
    from repro.lint import report as lint_report
    from repro.lint.program import run_program, select_program_rules
    from repro.lint.rules import all_rules

    if args.list_rules:
        print("per-file rules:")
        for rule_id, rule in sorted(all_rules().items()):
            print(f"  {rule_id:16} {rule.description}")
        print("program rules (--program):")
        for rule_id, program_rule in sorted(select_program_rules().items()):
            print(f"  {rule_id:16} {program_rule.description}")
        return 0

    only = args.rule or None
    engine = lint_engine.LintEngine()
    try:
        if only and not args.program:
            engine.select_rules(only)  # validate ids before scanning
        if only and args.program:
            select_program_rules(only)
    except KeyError as error:
        print(f"unknown rule: {error.args[0]}", file=sys.stderr)
        return 2
    paths: list[str] = args.paths or ["src"]
    if args.program:
        run = run_program(paths, only=only)
        findings, checked = run.findings, run.checked_files
    else:
        files = list(lint_engine.iter_python_files(paths))
        findings = engine.lint(files, only)
        checked = len(files)
    render = (
        lint_report.render_json if args.format == "json" else lint_report.render_console
    )
    print(render(findings, checked_files=checked))
    return lint_report.exit_code(findings)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(
        args.output, trials=args.trials, fast=args.fast, seed=args.seed
    )
    print(text)
    print(f"(written to {args.output})")
    return 0


def _cmd_provision(args: argparse.Namespace) -> int:
    from repro.daemon.demo import write_deployment

    config = write_deployment(args.dir, args.seed)
    print(f"provisioned {len(config.nodes)} daemons + client keys in {args.dir}")
    for name, address in config.nodes.items():
        print(f"  {name:<14} {address.role:<9} {address.host}:{address.port}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.daemon.service import serve

    try:
        return asyncio.run(
            serve(
                args.dir,
                args.name,
                host=args.host,
                port=args.port,
                state_dir=args.state_dir,
            )
        )
    except KeyboardInterrupt:
        return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import StoreError, open_store

    if args.action == "smoke":
        from repro.faults.scenarios import render_report, run_suite

        names = [f"broker-crash-campaign-{args.backend}"]
        results = run_suite(names, seeds=range(args.seed, args.seed + args.seeds))
        print(render_report(results), end="")
        return 0 if all(result.ok for result in results) else 1

    if args.dir is None:
        print(f"store {args.action} requires --dir", file=sys.stderr)
        return 2
    try:
        store = open_store(args.dir)
    except StoreError as error:
        print(f"cannot open store: {error}", file=sys.stderr)
        return 1
    try:
        if args.action == "verify":
            problems = store.verify()
            for problem in problems:
                print(f"PROBLEM {problem}")
            print(f"{len(problems)} problem(s)")
            return 1 if problems else 0
        stats = store.recover()
        if args.action == "compact":
            before = store.wal_bytes()
            store.compact()
            print(
                f"compacted: wal {before} -> {store.wal_bytes()} bytes, "
                f"{stats.replayed_records} journal record(s) folded into the snapshot"
            )
            return 0
        # inspect
        print(f"store {store.directory}")
        print(f"  backend={store.backend_kind} shards={store.shard_count}")
        print(
            f"  recovery: snapshot={stats.snapshot_records} "
            f"replayed={stats.replayed_records} torn-bytes={stats.truncated_bytes} "
            f"discarded={stats.discarded_records}"
        )
        print(f"  wal-bytes={store.wal_bytes()}")
        for space, table in store.dump().items():
            print(f"  space {space}: {len(table)} record(s)")
        print(f"  state-digest={store.state_digest()}")
        return 0
    finally:
        store.close()


def _cmd_connect(args: argparse.Namespace) -> int:
    import asyncio

    if args.demo:
        import tempfile

        from repro.daemon.demo import format_report, run_loopback_demo

        with tempfile.TemporaryDirectory(prefix="repro-daemon-") as directory:
            report = run_loopback_demo(directory, seed=args.seed)
        print(format_report(report))
        return 0 if not report["problems"] else 1

    from repro.daemon.client import SocketTransport
    from repro.daemon.config import load_config
    from repro.daemon.keys import load_authorized, load_identity

    async def ping() -> dict[str, object]:
        config = load_config(args.dir)
        transport = SocketTransport(
            load_identity(args.dir, args.name),
            load_authorized(args.dir),
            config.netmap(),
        )
        try:
            return await transport.call(args.peer, args.method, {})
        finally:
            await transport.close()

    print(asyncio.run(ping()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Witness-based anonymous e-cash (ICDCS 2007 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2007, help="deterministic seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the full coin lifecycle")
    demo.add_argument("--denomination", type=int, default=25, help="coin value in cents")
    demo.add_argument(
        "--metrics", action="store_true", help="print the telemetry snapshot after"
    )
    demo.set_defaults(func=_cmd_demo)

    attack = subparsers.add_parser("attack", help="attempt a double-spend")
    attack.add_argument(
        "--metrics", action="store_true", help="print the telemetry snapshot after"
    )
    attack.set_defaults(func=_cmd_attack)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (op counts)")
    table1.set_defaults(func=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2 (latency/bytes)")
    table2.add_argument("--trials", type=int, default=100)
    table2.add_argument(
        "--fast", action="store_true", help="use the 512-bit test group"
    )
    table2.add_argument(
        "--metrics", action="store_true", help="print the telemetry snapshot after"
    )
    table2.set_defaults(func=_cmd_table2)

    metrics = subparsers.add_parser(
        "metrics", help="run an instrumented workload, dump the telemetry snapshot"
    )
    metrics.add_argument(
        "--format",
        choices=["console", "json", "prom"],
        default="console",
        help="snapshot output format",
    )
    metrics.set_defaults(func=_cmd_metrics)

    rounds = subparsers.add_parser("rounds", help="message rounds per protocol")
    rounds.set_defaults(func=_cmd_rounds)

    trace = subparsers.add_parser("trace", help="print the Figure 1 message flow")
    trace.set_defaults(func=_cmd_trace)

    wallet = subparsers.add_parser("wallet", help="inspect a wallet file")
    wallet.add_argument("path", help="path to a wallet file")
    wallet.set_defaults(func=_cmd_wallet)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the seeded fault-injection scenario suite, check invariants",
    )
    chaos.add_argument(
        "--quick", action="store_true", help="3 seeds per scenario (CI smoke)"
    )
    chaos.add_argument(
        "--seeds", type=int, default=20, help="seeds per scenario (default 20)"
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable)",
    )
    chaos.add_argument("--list", action="store_true", help="list scenario names")
    chaos.add_argument("--out", help="write the report to a file instead of stdout")
    chaos.add_argument(
        "--metrics", action="store_true", help="print the telemetry snapshot after"
    )
    chaos.set_defaults(func=_cmd_chaos)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a seeded large-overlay workload campaign under churn, "
        "write BENCH_campaign.json",
    )
    campaign.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="overlay size (default 10000, or 200 with --quick)",
    )
    campaign.add_argument(
        "--duration",
        type=float,
        default=None,
        help="campaign horizon in simulated seconds (default 60, 10 with --quick)",
    )
    campaign.add_argument(
        "--quick", action="store_true", help="small overlay + short horizon (CI smoke)"
    )
    campaign.add_argument(
        "--runs",
        type=int,
        default=1,
        metavar="N",
        help="repeat the campaign N times and assert byte-identical digests",
    )
    campaign.add_argument(
        "--out",
        default="BENCH_campaign.json",
        help="report file (default BENCH_campaign.json)",
    )
    campaign.add_argument(
        "--metrics", action="store_true", help="print the telemetry snapshot after"
    )
    campaign.set_defaults(func=_cmd_campaign)

    lint = subparsers.add_parser(
        "lint",
        help="run the protocol-invariant static analyzer (AST rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to scan (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=["console", "json"],
        default="console",
        help="report format",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--program",
        action="store_true",
        help="run the whole-program analyses (journal-first, async-safety, "
        "exception-wire) instead of the per-file rules",
    )
    lint.add_argument("--list-rules", action="store_true", help="list rule ids")
    lint.set_defaults(func=_cmd_lint)

    report = subparsers.add_parser(
        "report", help="run every harness, write a Markdown reproduction report"
    )
    report.add_argument("--output", default="REPORT.md", help="output file")
    report.add_argument("--trials", type=int, default=100, help="Table 2 trials")
    report.add_argument(
        "--fast", action="store_true", help="use the 512-bit test group"
    )
    report.set_defaults(func=_cmd_report)

    provision = subparsers.add_parser(
        "provision", help="write daemon keys + netmap for a loopback deployment"
    )
    provision.add_argument("--dir", required=True, help="deployment directory")
    provision.set_defaults(func=_cmd_provision)

    serve = subparsers.add_parser(
        "serve", help="run one daemon (broker/witness/merchant) from a deployment dir"
    )
    serve.add_argument("--dir", required=True, help="deployment directory")
    serve.add_argument("--name", required=True, help="node name to serve")
    serve.add_argument("--host", default=None, help="bind address override")
    serve.add_argument("--port", type=int, default=None, help="bind port override")
    serve.add_argument(
        "--state-dir",
        default=None,
        help="durable state directory: journal every RPC "
        "to a write-ahead log, replay it on restart",
    )
    serve.set_defaults(func=_cmd_serve)

    store = subparsers.add_parser(
        "store", help="inspect, verify, compact, or smoke-test a durable store"
    )
    store.add_argument(
        "action",
        choices=("inspect", "verify", "compact", "smoke"),
        help="inspect: recover + per-space counts + digest; verify: "
        "integrity scan (exit 1 on problems); compact: fold the journal "
        "into the snapshot; smoke: run the broker-crash-campaign chaos "
        "scenario end to end",
    )
    store.add_argument("--dir", default=None, help="store directory (not for smoke)")
    store.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="sqlite",
        help="backend for the smoke scenario (default sqlite)",
    )
    store.add_argument(
        "--seeds", type=int, default=3, help="smoke: number of seeds to run"
    )
    store.set_defaults(func=_cmd_store)

    connect = subparsers.add_parser(
        "connect", help="connect to a daemon deployment (or run the loopback demo)"
    )
    connect.add_argument(
        "--demo",
        action="store_true",
        help="spawn broker+witness+merchant, run the full lifecycle, compare "
        "byte accounting against the sim backend",
    )
    connect.add_argument("--dir", default=None, help="deployment directory")
    connect.add_argument("--name", default="client-0", help="connecting identity")
    connect.add_argument("--peer", default="broker", help="daemon to contact")
    connect.add_argument("--method", default="admin/ping", help="method to call")
    connect.set_defaults(func=_cmd_connect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
