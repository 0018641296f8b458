"""Per-layer metrics that need the live deployment or the recorded spans.

The traced run repeats the workload with a span around every client
step and every RPC; this module probes the daemons while they are up
(ping round trip, connect + handshake, ``admin/stats`` byte meters) and,
afterwards, turns spans plus the in-process ladder into the daemon-layer
metrics and the per-payment budget. Server-side handler time is not
reachable from outside, so each daemon's share of a payment is the
in-process time of the same handler and the remainder is booked to
transport + scheduling.
"""

from __future__ import annotations

import statistics
import time
from typing import TYPE_CHECKING

from bench.deploy import CLIENTS, WITNESS
from bench.loadgen import percentile, supports
from bench.tracing import Span, Tracer, self_times

from repro.net import registry

if TYPE_CHECKING:
    from bench.workloads import LifecycleRun

PINGS = 300
CONNECTS = 10


async def daemon_meters(run: "LifecycleRun") -> dict[str, int]:
    """Bytes sent + received so far by each daemon that takes part in payments.

    ``admin/stats`` replies with the daemon's whole (unbounded) RPC log;
    fine at traced-run sizes, never to be called on a long run.
    """
    dep = run.dep
    assert dep is not None
    totals = {}
    for name in (WITNESS, *dep.storefronts):
        reply = await dep.control.call(name, "admin/stats", {}, timeout=60.0)
        totals[name] = registry.as_int(reply["sent"]) + registry.as_int(reply["received"])
    return totals


async def probe_transport(run: "LifecycleRun") -> None:
    """Ping round trip on an open connection; TCP connect + mutual handshake."""
    dep = run.dep
    assert dep is not None
    shop = dep.storefronts[0]
    rtts = []
    for _ in range(PINGS):
        started = time.perf_counter()
        await dep.control.call(shop, "admin/ping", {})
        rtts.append(time.perf_counter() - started)
    run.report.metrics["daemon.ping_rtt_us"] = (statistics.median(rtts) * 1e6, "us", PINGS)
    connects = []
    for _ in range(CONNECTS):
        transport = dep.new_transport(CLIENTS[1])
        started = time.perf_counter()
        await transport.connection(shop)
        connects.append(time.perf_counter() - started)
        await transport.close()
    run.report.metrics["daemon.connect_ms"] = (
        statistics.median(connects) * 1e3, "ms", CONNECTS)


def _children(spans: list[Span], name: str) -> dict[int, list[Span]]:
    """Child spans grouped under each root span called ``name``."""
    roots = {span.id: [] for span in spans if span.name == name and span.parent is None}
    for span in spans:
        if span.parent in roots:
            roots[span.parent].append(span)
    return roots


def add_traced_metrics(run: "LifecycleRun", tracer: Tracer) -> None:
    """Daemon-layer metrics and the per-payment budget, from spans + ladder."""
    report = run.report
    metrics = report.metrics
    spans = tracer.spans

    def value(name: str) -> float:
        return metrics[name][0]

    by_method: dict[str, list[float]] = {}
    for span in spans:
        if span.name.startswith("rpc."):
            by_method.setdefault(span.name[4:], []).append(span.duration * 1e3)
    for method in ("withdraw/begin", "withdraw/complete", "witness/commit", "pay",
                   "witness/sign"):
        samples = by_method[method]
        metrics[f"daemon.rpc_ms.{method.replace('/', '-')}"] = (
            statistics.median(samples), "ms", len(samples))
    deposit = report.phases["deposit"]
    metrics["daemon.rpc_ms.deposit"] = (
        deposit.wall_s / deposit.attempted * 1e3, "ms", deposit.attempted)

    metrics["daemon.transport_share_pay"] = (
        1.0 - value("core.pay_ms") / value("raw.pay_p50_ms"), "share", 1)
    metrics["daemon.queue_wait_p90_ms"] = (
        value("daemon.pay_open_p90_ms") - value("raw.pay_p90_ms"), "ms", 1)
    for phase, name in (("pay", "daemon.pay_p99_ms"), ("pay_open", "daemon.pay_open_p99_ms")):
        latencies = report.phases[phase].latencies_ms
        if supports(latencies, 0.99):
            metrics[name] = (percentile(latencies, 0.99), "ms", len(latencies))

    open_phase = report.phases["pay_open"]
    late = percentile(open_phase.lateness_ms, 0.9)
    metrics["scale.loadgen_late_p90_ms"] = (late, "ms", len(open_phase.lateness_ms))
    open_compute = sum(
        child.duration
        for children in _children(spans, "pay_open").values()
        for child in children
        if child.name == "client.compute"
    )
    busy = open_compute / open_phase.wall_s
    metrics["scale.loadgen_busy_share"] = (busy, "share", open_phase.attempted)
    if late > 2.0 or busy > 0.5:
        report.notes.append(
            f"INVALID open-loop reading: generator late p90 {late:.2f} ms, busy share "
            f"{busy:.2f} — the generator, not the system, was measured")

    traced, untraced = run.traced_latencies_ms, run.untraced_latencies_ms
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%", len(traced))

    # Per-payment budget of the traced closed-loop payments.
    client = statistics.median(
        sum(c.duration for c in children if c.name == "client.compute") * 1e3
        for children in _children(spans, "pay").values()
    )
    shares = {
        "client": client,
        "witness_commit": value("core.witness_commit_ms"),
        "merchant_verify": value("core.merchant_verify_ms"),
        "witness_sign": value("core.witness_sign_ms"),
    }
    total = statistics.median(traced)
    shares["transport"] = total - sum(shares.values())
    # The three daemon shares are the core.* ladder numbers; only the
    # client's and the remainder are new measurements.
    metrics["budget.pay_client_ms"] = (client, "ms", len(traced))
    metrics["budget.pay_transport_ms"] = (shares["transport"], "ms", len(traced))
    report.notes.append(
        f"per-payment budget (traced closed loop, p50 {total:.2f} ms): "
        + ", ".join(f"{name} {ms:.2f} ms" for name, ms in shares.items())
        + "; journal+fsync 0 (the store does no work in pay; per deposit "
        f"{value('store.journal_deposit_ms'):.2f} ms)")
    own = self_times(spans)
    driver = statistics.median(own[s.id] for s in spans if s.name == "pay" and s.parent is None)
    report.notes.append(
        f"flow driver self time (root pay span minus client steps and RPCs): {driver * 1e3:.3f} ms")
    report.notes.append(
        f"tracing overhead: traced p50 {total:.3f} ms vs untraced "
        f"{statistics.median(untraced):.3f} ms ({overhead * 100.0:+.2f} %)")
