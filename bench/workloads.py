"""The workloads: one lifecycle pipeline, three deployments it runs against.

Every workload runs the same phases through real daemon processes —
set-up, withdraw, closed-loop pay, open-loop pay, refuse, deposit,
crash-recover — and so reports the same end-to-end metrics; what differs
is the deployment under them (see :data:`WORKLOADS` and the README for
why each exists). The pinned sizes below are part of the benchmark's
definition and never derive from anything measured at run time.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, TypeVar

from bench.deploy import (
    BROKER,
    CLIENTS,
    DRAIN_TIMEOUT,
    PROTOCOL_NOW,
    STOREFRONTS,
    WITNESS,
    Deployment,
)
from bench.loadgen import (
    Op,
    PhaseResult,
    closed_loop,
    open_loop,
    percentile,
    run_flow,
)
from bench.hostspeed import HostSpeed
from bench.traced import daemon_meters, probe_transport
from bench.tracing import Tracer

from repro.cli import main as repro_cli
from repro.core.client import Client, StoredCoin
from repro.core.exceptions import DoubleSpendError
from repro.net import registry
from repro.scale.workload import WorkloadConfig, generate_events

#: The lifecycle runs in cycles — withdraw, pay closed-loop, pay open-loop,
#: refuse, deposit — one cycle per :data:`CYCLE_SECONDS` of ``--seconds``
#: (each takes about that long on the 2-core reference host). Every phase
#: of every cycle is a block timed on its own, between two host-speed
#: readings (:mod:`bench.hostspeed`): the host's speed moves from one
#: half-second to the next, and a phase that ran once for several seconds
#: could not be told apart from the host it ran on.
CYCLE_SECONDS = 2.5
CLOSED_PER_CYCLE = 60
OPEN_PER_CYCLE = 40
REPLAYS_PER_CYCLE = 30

#: Open-loop offered rate, payments/s: about half the closed-loop capacity.
OPEN_RATE = 80.0
#: A payment slower than this (or failed, or refused) misses the limit.
LATENCY_LIMIT_MS = 50.0
#: Coins sent through every path of a fresh deployment before it is timed.
WARMUP = 20
#: The cycles are split over this many fresh deployments ("epochs"), each
#: set up, crash-recovered a few times and shut down, so set-up and
#: recovery are read at three points of the run.
EPOCHS = 3
RECOVERIES_PER_EPOCH = 2

DENOMINATIONS = (1, 5, 10, 25, 100)

T = TypeVar("T")


@dataclass(frozen=True)
class Workload:
    """One deployment the lifecycle is run against (why: ``BENCHMARK.json``)."""

    name: str
    durable: bool
    storefronts: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lifecycle_durable", durable=True, storefronts=STOREFRONTS[:1]),
        Workload("lifecycle_memory", durable=False, storefronts=STOREFRONTS[:1]),
        Workload("pay_open", durable=False, storefronts=STOREFRONTS),
    )
}


@dataclass
class Report:
    """Everything one workload run observed."""

    workload: str
    seed: int
    seconds: int
    #: ``name -> (value, unit, sample count)``
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    phases: dict[str, PhaseResult] = field(default_factory=dict)
    #: Failed output checks; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        """Operations attempted across all phases."""
        return sum(phase.attempted for phase in self.phases.values())

    @property
    def failed(self) -> int:
        """Operations that failed across all phases."""
        return sum(phase.failed for phase in self.phases.values())

    @property
    def correct(self) -> bool:
        """No operation failed and every output check held."""
        return self.failed == 0 and not self.problems


def open_schedule(
    seed: int, count: int, merchants: tuple[str, ...]
) -> list[tuple[float, str]]:
    """``count`` open-loop arrivals as ``(due offset, storefront)``.

    Inter-arrival pattern and Zipf merchant choice are replayed from
    :func:`repro.scale.workload.generate_events`; the offsets are then
    scaled so the realised rate over the phase is exactly
    :data:`OPEN_RATE` — a Poisson count over a few seconds varies ±5 %
    from seed to seed, and latency under load follows the offered rate.
    """
    config = WorkloadConfig(
        seed=seed,
        duration=2.0 * count / OPEN_RATE + 10.0,
        payment_rate=OPEN_RATE,
        merchants=len(merchants),
        zipf_s=1.0,
        clients=len(CLIENTS),
        deposit_rate=0.0,
        renewal_boundaries=(),
    )
    pays = [event for event in generate_events(config) if event.kind == "pay"][:count]
    if len(pays) < count:
        raise RuntimeError(f"schedule produced {len(pays)} of {count} arrivals")
    first = pays[0].time
    stretch = ((count - 1) / OPEN_RATE) / (pays[-1].time - first)
    return [
        ((event.time - first) * stretch, merchants[int(event.merchant.rsplit("-", 1)[1])])
        for event in pays
    ]


def check_deposit_reply(reply: dict[str, Any], expected: list[int]) -> list[str]:
    """Problems with one ``admin/deposit`` reply against the expected amounts."""
    count = registry.as_int(reply["count"])
    if count != len(expected):
        return [f"deposit count {count}, expected {len(expected)}"]
    problems = []
    amounts = []
    for index in range(count):
        entry = reply[f"r{index}"]
        if str(entry["outcome"]) != "credited":
            problems.append(f"deposit {index} outcome {entry['outcome']!r}")
        amounts.append(registry.as_int(entry["amount"]))
    if sorted(amounts) != sorted(expected):
        problems.append("deposited amounts differ from the coins paid")
    return problems


def check_store(state_dir: Path, deposits: int) -> list[str]:
    """``repro store verify`` must be clean and ``inspect`` count the deposits."""

    def store_cli(action: str) -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = repro_cli(["store", action, "--dir", str(state_dir)])
        return code, captured.getvalue()

    problems = []
    code, output = store_cli("verify")
    if code != 0:
        problems.append(f"store verify: {output.strip()}")
    code, output = store_cli("inspect")
    wanted = f"space deposits: {deposits} record(s)"
    if code != 0 or wanted not in output:
        problems.append(f"store inspect lacks {wanted!r}")
    return problems


class LifecycleRun:
    """State of one workload run: the deployment, the wallets, the report."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: int,
        tracer: Tracer | None,
        host: HostSpeed | None = None,
    ) -> None:
        self.workload = workload
        self.tracer = tracer
        self.host = host if host is not None else HostSpeed([], None)
        self.report = Report(workload.name, seed, seconds)
        self.rng = random.Random(f"bench:{workload.name}:{seed}")
        self.dep: Deployment | None = None
        self.clients: list[Client] = []
        self.witness_public = 0
        #: A traced run alternates traced/untraced closed-loop payments, so
        #: tracing overhead is read under identical conditions.
        self.traced_latencies_ms: list[float] = []
        self.untraced_latencies_ms: list[float] = []
        #: Denominations paid at each storefront and not yet deposited.
        self.pending: dict[str, list[int]] = {}
        #: Transcripts this deployment's broker has been sent so far.
        self.deposited = 0
        #: ``(seconds as clocked, seconds at the reference host speed)``.
        self.setups: list[tuple[float, float]] = []
        self.recoveries: list[tuple[float, float]] = []
        self.wire_bytes = 0
        for name in ("warmup_deposit", "withdraw", "pay", "pay_open", "refuse", "deposit",
                     "post_restart_withdraw"):
            self.report.phases[name] = PhaseResult()

    # -- single operations ------------------------------------------------
    def _trace_of(self, stored: StoredCoin) -> str:
        assert self.dep is not None and self.dep.system is not None
        return f"{stored.coin.digest(self.dep.system.params):x}"[:12]

    async def withdraw(self, who: int, denomination: int, into: list[StoredCoin]) -> None:
        dep = self.dep
        assert dep is not None and dep.system is not None
        info = dep.system.standard_info(denomination, now=PROTOCOL_NOW)
        flow = registry.withdrawal_flow(
            self.clients[who], BROKER, dep.system.broker.tables, info
        )
        transport = dep.transports[CLIENTS[who]]
        if self.tracer is None:
            stored = await run_flow(transport, flow, None)
        else:
            with self.tracer.span("withdraw") as span:
                stored = await run_flow(transport, flow, self.tracer)
                span.trace = self._trace_of(stored)
        if stored.coin.denomination != denomination:
            raise AssertionError("withdrawn coin has the wrong denomination")
        into.append(stored)

    async def pay(
        self, who: int, stored: StoredCoin, merchant: str, root: str, traced: bool = True
    ) -> None:
        assert self.dep is not None
        flow = registry.payment_flow(
            self.clients[who], stored, merchant, self.witness_public, lambda: PROTOCOL_NOW
        )
        transport = self.dep.transports[CLIENTS[who]]
        if self.tracer is None or not traced:
            amount = await run_flow(transport, flow, None)
        else:
            with self.tracer.span(root, trace=self._trace_of(stored)):
                amount = await run_flow(transport, flow, self.tracer)
        if amount != stored.coin.denomination:
            raise AssertionError(
                f"paid {amount}, coin is worth {stored.coin.denomination}"
            )

    async def replay(self, who: int, stored: StoredCoin, merchant: str) -> None:
        """Spend a spent coin again; anything but a proven refusal is a failure."""
        dep = self.dep
        assert dep is not None and dep.system is not None
        flow = registry.direct_spend_flow(
            self.clients[who], stored, merchant, self.witness_public, lambda: PROTOCOL_NOW
        )
        transport = dep.transports[CLIENTS[who]]
        try:
            if self.tracer is None:
                await run_flow(transport, flow, None)
            else:
                with self.tracer.span("refuse", trace=self._trace_of(stored)):
                    await run_flow(transport, flow, self.tracer)
        except DoubleSpendError as refusal:
            if not refusal.proof.verify(dep.system.params, stored.coin):
                raise AssertionError("double-spend proof does not verify") from None
            return
        self.report.problems.append("a double-spend was ACCEPTED")
        raise AssertionError("double-spend accepted")

    # -- phases -----------------------------------------------------------
    async def timed(self, block: Awaitable[T]) -> tuple[T, float]:
        """Await ``block`` between two host-speed readings.

        Returns what it returned and by how much the host stretched its
        timings; ``PhaseResult.absorb(*...)`` takes the pair as it is.
        """
        before = self.host.before()
        result = await block
        return result, self.host.slowdown(before, self.host.sample())

    async def set_up(self, directory: Path) -> None:
        """A fresh deployment, timed: keys, daemons, first ping and clock pin on each."""
        dep = self.dep = Deployment(
            directory, self.report.seed, self.workload.storefronts, self.workload.durable
        )

        async def start() -> float:
            started = time.perf_counter()
            await dep.start()
            return time.perf_counter() - started

        elapsed, slowdown = await self.timed(start())
        self.setups.append((elapsed, elapsed / slowdown))
        system = dep.system
        assert system is not None
        self.clients = [system.new_client() for _ in CLIENTS]
        self.witness_public = system.merchant(self.workload.storefronts[0]).witness_keys[
            WITNESS
        ]
        self.pending = {shop: [] for shop in self.workload.storefronts}
        self.deposited = 0

    def _meter_bytes(self) -> int:
        assert self.dep is not None
        return sum(sum(t.meter.snapshot()) for t in self.dep.transports.values())

    async def drain(self) -> PhaseResult:
        """``admin/deposit`` on every storefront: settles everything paid so far."""
        assert self.dep is not None
        result = PhaseResult()
        started = time.perf_counter()
        for merchant, amounts in self.pending.items():
            result.attempted += len(amounts)
            reply = await self.dep.control.call(
                merchant, "admin/deposit", {}, timeout=DRAIN_TIMEOUT
            )
            problems = check_deposit_reply(reply, amounts)
            if problems:
                result.failed += len(amounts)
                self.report.problems.extend(f"{merchant}: {p}" for p in problems)
            amounts.clear()
        result.wall_s = time.perf_counter() - started
        self.deposited += result.attempted
        return result

    def _shop_of(self, who: int) -> str:
        shops = self.workload.storefronts
        return shops[who % len(shops)]

    def _other_shop(self, who: int) -> str:
        return next(m for m in STOREFRONTS if m != self._shop_of(who))

    def _withdrawals(self, count: int, into: list[list[StoredCoin]]) -> list[Op]:
        """``count`` withdrawals, the clients taking turns."""
        return [
            (lambda d=self.rng.choice(DENOMINATIONS), w=index % len(CLIENTS):
             self.withdraw(w, d, into[w]))
            for index in range(count)
        ]

    async def _pay_block(self, coins: list[list[StoredCoin]], traced: bool) -> PhaseResult:
        """One closed-loop block: the clients take turns, each at its storefront."""

        def op(who: int, index: int, stored: StoredCoin) -> Op:
            with_spans = traced and index % 2 == 1

            async def pay() -> None:
                started = time.perf_counter()
                await self.pay(who, stored, self._shop_of(who), "pay", with_spans)
                if traced:
                    bucket = self.traced_latencies_ms if with_spans else self.untraced_latencies_ms
                    bucket.append((time.perf_counter() - started) * 1000.0)

            return pay

        turns = [
            op(who, index, lane[index])
            for index in range(max(len(lane) for lane in coins))
            for who, lane in enumerate(coins)
            if index < len(lane)
        ]
        result = await closed_loop([turns])
        for who, lane in enumerate(coins):
            self.pending[self._shop_of(who)].extend(s.coin.denomination for s in lane)
        return result

    def _open_ops(
        self, segment: list[tuple[float, str]], coins: list[list[StoredCoin]]
    ) -> list[Op]:
        """One open-loop payment per arrival, clients taking turns."""
        ops: list[Op] = []
        for index, (_due, shop) in enumerate(segment):
            who = index % len(CLIENTS)
            stored = coins[who][index // len(CLIENTS)]
            self.pending[shop].append(stored.coin.denomination)
            ops.append(lambda w=who, s=stored, m=shop: self.pay(w, s, m, "pay_open"))
        return ops

    async def cycle(self, segment: list[tuple[float, str]], probe: bool) -> None:
        """Withdraw, pay closed-loop, pay open-loop, refuse, deposit — each timed on its own.

        The closed loops run one request at a time, the two clients
        taking turns: two clients interleaving through the serial daemon
        loops lock into an overlapping or a queueing rhythm for a whole
        block (withdraw p50 2.6 ms or 4.8 ms, either within ±5 %), and
        which one a block falls into is not a property of the program.
        ``probe`` (first cycle of a traced run) reads the daemons' byte
        meters around the two pay phases.
        """
        phases = self.report.phases
        lanes = len(CLIENTS)
        closed_per_lane = CLOSED_PER_CYCLE // lanes
        tracing = self.tracer is not None

        # Withdraw (Alg. 1): two broker rounds, tickets + ledger journaled.
        coins: list[list[StoredCoin]] = [[] for _ in range(lanes)]
        phases["withdraw"].absorb(*await self.timed(closed_loop(
            [self._withdrawals(CLOSED_PER_CYCLE + len(segment), coins)])))

        # Pay, closed loop (Alg. 2): witness/commit, pay, nested witness/sign.
        meters_before = await daemon_meters(self) if probe else {}
        bytes_before = self._meter_bytes()
        phases["pay"].absorb(*await self.timed(self._pay_block(
            [lane[:closed_per_lane] for lane in coins], traced=tracing)))

        # Pay, open loop: the same path, arrivals that do not wait.
        spare = [lane[closed_per_lane:] for lane in coins]
        phases["pay_open"].absorb(*await self.timed(open_loop(
            [due - segment[0][0] for due, _ in segment], self._open_ops(segment, spare))))
        self.wire_bytes += self._meter_bytes() - bytes_before
        if probe:
            meters_after = await daemon_meters(self)
            paid = CLOSED_PER_CYCLE + len(segment)
            for label, names in (("witness", [WITNESS]), ("merchant", self.workload.storefronts)):
                moved = sum(meters_after[n] - meters_before[n] for n in names)
                self.report.metrics[f"daemon.bytes_per_payment.{label}"] = (
                    moved / paid, "B", paid)

        # Refuse: replay spent coins under another merchant's name.
        replays = [(index % lanes, coins[index % lanes][index // lanes])
                   for index in range(REPLAYS_PER_CYCLE)]
        phases["refuse"].absorb(*await self.timed(closed_loop(
            [[(lambda s=s, w=w: self.replay(w, s, self._other_shop(w))) for w, s in replays]]
        )))

        # Deposit (Alg. 3): one journaled — and, when durable, fsynced —
        # broker RPC per transcript paid in this cycle.
        phases["deposit"].absorb(*await self.timed(self.drain()))

    async def epoch(self, segments: list[list[tuple[float, str]]], first: bool) -> None:
        """One deployment's life after set-up: warm up, cycle, crash, shut down."""
        dep, phases = self.dep, self.report.phases
        assert dep is not None
        lanes = len(CLIENTS)
        tracing = self.tracer is not None

        # Warm-up: a few coins through every path, left out of all timings.
        warm: list[list[StoredCoin]] = [[] for _ in range(lanes)]
        await closed_loop([self._withdrawals(WARMUP, warm)])
        await self._pay_block(warm, traced=False)
        phases["warmup_deposit"].absorb(await self.drain())

        for index, segment in enumerate(segments):
            await self.cycle(segment, probe=tracing and first and index == 0)
        if tracing and first:
            await probe_transport(self)

        # Recover: SIGKILL the broker, restart on the same state, first ping.
        for _ in range(RECOVERIES_PER_EPOCH):
            elapsed, slowdown = await self.timed(dep.crash_and_restart_broker())
            self.recoveries.append((elapsed, elapsed / slowdown))
        phases["post_restart_withdraw"].absorb(await closed_loop(
            [[lambda: self.withdraw(0, DENOMINATIONS[0], warm[0])]]
        ))

        await dep.shutdown()
        if dep.state_dir is not None:
            self.report.problems.extend(check_store(dep.state_dir, self.deposited))
            size = sum(f.stat().st_size for f in dep.state_dir.rglob("*") if f.is_file())
            self.report.metrics["state_bytes_per_coin"] = (
                size / self.deposited, "B", self.deposited)
        await dep.close()

    def summarize(self) -> None:
        """Turn the accumulated phases into the end-to-end metrics.

        Every timing is reported twice: under its own name as it would
        have read with the host at its reference speed (the gated value),
        and under ``raw.<name>`` as the clock read it.
        """
        report = self.report
        metrics, phases = report.metrics, report.phases

        def both(name: str, raw: float, corrected: float, unit: str, samples: int) -> None:
            metrics[name] = (corrected, unit, samples)
            metrics[f"raw.{name}"] = (raw, unit, samples)

        def rate(name: str, phase: PhaseResult, unit: str) -> None:
            both(name, phase.block_per_s, phase.corrected_per_s, unit, phase.attempted)

        def latency(name: str, phase: PhaseResult, q: float) -> None:
            both(name, percentile(phase.latencies_ms, q), percentile(phase.corrected_ms, q),
                 "ms", phase.attempted)

        def repeated(name: str, pairs: list[tuple[float, float]]) -> None:
            both(name, statistics.median(raw for raw, _ in pairs),
                 statistics.median(corrected for _, corrected in pairs), "s", len(pairs))

        pay, pay_open = phases["pay"], phases["pay_open"]
        repeated("setup_s", self.setups)
        rate("withdraw_per_s", phases["withdraw"], "coins/s")
        rate("pay_per_s", pay, "payments/s")
        latency("pay_p50_ms", pay, 0.5)
        latency("pay_p90_ms", pay, 0.9)
        latency("pay_open_p50_ms", pay_open, 0.5)
        # Per-layer only, as clocked: ten runs of one commit spread it by a quarter.
        opened = pay_open.attempted
        metrics["daemon.pay_open_p90_ms"] = (percentile(pay_open.latencies_ms, 0.9), "ms", opened)
        # The limit is one of real time, so goodput is as clocked.
        within = sum(1 for ms in pay_open.latencies_ms if ms <= LATENCY_LIMIT_MS)
        metrics["pay_open_goodput_per_s"] = (within / pay_open.wall_s, "payments/s", opened)
        payments = pay.attempted + opened - pay.failed - pay_open.failed
        metrics["pay_wire_bytes"] = (self.wire_bytes / max(1, payments), "B", payments)
        latency("refuse_p50_ms", phases["refuse"], 0.5)
        rate("deposit_per_s", phases["deposit"], "coins/s")
        repeated("recover_s", self.recoveries)
        slowdowns = self.host.factors
        if slowdowns:
            report.notes.append(
                f"host speed: blocks ran at {1 / statistics.median(slowdowns):.2f}x the reference "
                f"speed (slowest {1 / max(slowdowns):.2f}x, fastest {1 / min(slowdowns):.2f}x, "
                f"{len(slowdowns)} blocks)")
        for name, phase in phases.items():
            report.problems.extend(f"{name}: {error}" for error in phase.errors)


async def run_workload(
    workload: Workload,
    seed: int,
    seconds: int,
    scratch: Path,
    tracer: Tracer | None = None,
    host: HostSpeed | None = None,
) -> LifecycleRun:
    """Run one workload end to end; daemons and scratch files never outlive it."""
    run = LifecycleRun(workload, seed, seconds, tracer, host)
    directory = scratch / f"{workload.name}-{seed}-{time.time_ns()}"
    cycles = max(1, int(seconds / CYCLE_SECONDS))
    epochs = min(EPOCHS, cycles)
    schedule = open_schedule(seed, OPEN_PER_CYCLE * cycles, workload.storefronts)
    segments = [schedule[i : i + OPEN_PER_CYCLE] for i in range(0, len(schedule), OPEN_PER_CYCLE)]
    started = time.perf_counter()
    try:
        for epoch in range(epochs):
            await run.set_up(directory / f"epoch-{epoch}")
            await run.epoch(segments[epoch::epochs], first=epoch == 0)
        run.summarize()
    except BaseException:
        if run.dep is not None:
            print(run.dep.failure_report(), file=sys.stderr)
        raise
    finally:
        if run.dep is not None:
            await run.dep.close()
        shutil.rmtree(directory, ignore_errors=True)
        run.report.wall_s = time.perf_counter() - started
    return run
