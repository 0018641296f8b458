"""Campaign runner: seeded 10k-node overlay workloads under churn.

A *campaign* drives a :mod:`repro.scale.workload` event schedule against
a large :class:`~repro.net.chord.ChordRing` while three chaos streams run
concurrently, all derived from one seed:

* **availability churn** — :class:`~repro.net.churn.ChurnModel` timelines
  flip node liveness (fail/recover) without touching routing tables;
* **membership churn** — a Poisson stream of joins and leaves exercises
  the incremental-repair path and moves stored records to heirs
  (range rebalancing, accounted in bytes against Table 2's scale);
* **the workload itself** — every withdraw/pay/deposit/renew event
  resolves its witness with one overlay lookup; payments store a witness
  entry at the owner.

Alongside the overlay tier, a small *protocol slice* replays the first
few workload events through the real-crypto stack
(:class:`~repro.core.system.EcashSystem` over the sim transport) and runs
the :class:`~repro.faults.invariants.InvariantChecker`, so every campaign
asserts the paper's safety invariants with real signatures while the
overlay scales to 10⁴ nodes.

Determinism contract: the report's ``results`` section depends only on
the config — it is identical across runs and across bigint backends (the
CI smoke job runs each campaign twice and compares digests).
Implementation diagnostics (repair ops, table builds, wall-clock) live
*outside* ``results`` and are excluded from the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Any

from repro import obs
from repro.core.exceptions import EcashError, ServiceUnavailableError
from repro.core.system import EcashSystem
from repro.faults.invariants import InvariantChecker
from repro.net.chord import ChordLookupError, ChordRing, chord_id
from repro.net.churn import ChurnModel
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from repro.net.sim import SimTimeoutError
from repro.obs.histogram import StreamingHistogram
from repro.scale.workload import (
    WorkloadConfig,
    event_counts,
    generate_events,
    schedule_digest,
)

#: The client node name the protocol slice uses.
CLIENT = "client-0"

#: Report schema tag (bump when the digested layout changes).
SCHEMA = "repro-campaign-v1"

#: Mean-hop acceptance bound: 0.5·log₂(n) + this constant.
HOP_BOUND_CONSTANT = 2.0


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run depends on (the determinism boundary).

    Attributes:
        seed: master seed for every derived stream.
        nodes: overlay size at bootstrap.
        duration: campaign horizon in simulated seconds.
        successor_list_size: Chord ``r`` (failover depth).
        payment_rate: Poisson payment arrivals per second.
        deposit_rate: Poisson merchant-deposit drain per second.
        clients: workload payer population.
        merchants: workload merchant population (Zipf-ranked).
        zipf_s: merchant-popularity skew exponent.
        renewal_boundaries: soft/hard expiry instants (seconds); empty ⇒
            storms at 60% and 90% of the horizon.
        renewal_storm_size: renewals clustered at each boundary.
        churn_fraction: fraction of nodes given availability timelines.
        churn_mean_uptime: mean up period (seconds) for churned nodes.
        churn_mean_downtime: mean down period (seconds).
        membership_rate: Poisson join/leave events per second.
        protocol_payments: pay events replayed through real crypto.
        protocol_renewals: renew events replayed through real crypto.
    """

    seed: int = 2007
    nodes: int = 500
    duration: float = 30.0
    successor_list_size: int = 4
    payment_rate: float = 20.0
    deposit_rate: float = 4.0
    clients: int = 8
    merchants: int = 8
    zipf_s: float = 1.0
    renewal_boundaries: tuple[float, ...] = ()
    renewal_storm_size: int = 20
    churn_fraction: float = 0.1
    churn_mean_uptime: float = 40.0
    churn_mean_downtime: float = 5.0
    membership_rate: float = 0.5
    protocol_payments: int = 4
    protocol_renewals: int = 1

    def workload(self) -> WorkloadConfig:
        """The derived workload-generator config."""
        boundaries = self.renewal_boundaries or (
            round(0.6 * self.duration, 6),
            round(0.9 * self.duration, 6),
        )
        return WorkloadConfig(
            seed=self.seed,
            duration=self.duration,
            clients=self.clients,
            merchants=self.merchants,
            payment_rate=self.payment_rate,
            deposit_rate=self.deposit_rate,
            zipf_s=self.zipf_s,
            renewal_boundaries=tuple(boundaries),
            renewal_storm_size=self.renewal_storm_size,
        )


def _witness_record(kind: str, seq: int, actor: str) -> str:
    """Canonical witness-table entry stored at the key's owner.

    Its rendered length is the unit of the range-rebalance byte
    accounting: when a node leaves, the bytes handed to its heir are the
    sum of its stored entries' lengths — the same "state a witness must
    transfer" quantity Table 2 prices per payment on the wire.
    """
    return f"entry kind={kind} seq={seq} actor={actor}"


def _merged_timeline(
    config: CampaignConfig, ring: ChordRing
) -> tuple[list[tuple[float, int, int, Any]], int]:
    """All campaign happenings in deterministic time order.

    Returns ``(entries, initial_down)`` where each entry is
    ``(time, tiebreak_class, tiebreak_seq, payload)`` and payload is one
    of ``("flip", name, up)``, ``("member", action)`` or
    ``("event", Event)``. ``initial_down`` counts churned nodes that
    start the campaign down (applied before the loop).
    """
    entries: list[tuple[float, int, int, Any]] = []

    churn_rng = random.Random(f"campaign:churn:{config.seed}")
    churned = max(0, min(len(ring.nodes), round(config.churn_fraction * config.nodes)))
    names = sorted(node.name for node in ring.nodes)
    flipped = churn_rng.sample(names, churned)
    model = ChurnModel(
        mean_uptime=config.churn_mean_uptime,
        mean_downtime=config.churn_mean_downtime,
        rng=churn_rng,
    )
    initial_down = 0
    seq = 0
    for name in flipped:
        timeline = model.timeline(config.duration)
        if not timeline.initially_up:
            initial_down += 1
            ring.set_up(name, False)
        for at, up in timeline.events():
            entries.append((at, 1, seq, ("flip", name, up)))
            seq += 1

    member_rng = random.Random(f"campaign:membership:{config.seed}")
    at = 0.0
    seq = 0
    if config.membership_rate > 0:
        at = member_rng.expovariate(config.membership_rate)
        while at < config.duration:
            action = "join" if member_rng.random() < 0.5 else "leave"
            entries.append((at, 0, seq, ("member", action)))
            seq += 1
            at += member_rng.expovariate(config.membership_rate)

    for event in generate_events(config.workload()):
        entries.append((event.time, 2, event.seq, ("event", event)))

    entries.sort(key=lambda row: (row[0], row[1], row[2]))
    return entries, initial_down


def _protocol_slice(config: CampaignConfig) -> dict[str, Any]:
    """Replay a few workload events through the real-crypto stack.

    A fresh :class:`EcashSystem` on the fast test group, driven over the
    sim transport with the hardened payment path, then checked by the
    safety-invariant suite. Outcome labels and invariant verdicts are
    deterministic, so they are digested.
    """
    system = EcashSystem(seed=config.seed)
    deployment = NetworkDeployment(
        system, cost_model=instant_profile(), seed=config.seed
    )
    deployment.add_client(CLIENT)
    checker = InvariantChecker(system)
    outcomes: list[str] = []

    def pay_once(tag: str, merchant_rank: int, renew_first: bool) -> None:
        try:
            info = system.standard_info(25, now=deployment.now())
            stored = deployment.run(deployment.withdrawal_process(CLIENT, info))
            if renew_first:
                fresh_info = system.standard_info(25, now=deployment.now())
                stored = deployment.run(
                    deployment.renewal_process(CLIENT, stored, fresh_info)
                )
            others = [
                m for m in system.merchant_ids if m != stored.coin.witness_id
            ]
            merchant_id = others[merchant_rank % len(others)]
            receipt = deployment.run(
                deployment.robust_payment_process(CLIENT, stored, merchant_id)
            )
            outcomes.append(f"{tag} paid {receipt.merchant_id} amount={receipt.amount}")
        except (SimTimeoutError, ServiceUnavailableError):
            outcomes.append(f"{tag} unavailable")
        except EcashError as error:
            outcomes.append(f"{tag} refused-{type(error).__name__}")

    events = generate_events(config.workload())
    pays = [e for e in events if e.kind == "pay"][: config.protocol_payments]
    renews = [e for e in events if e.kind == "renew"][: config.protocol_renewals]
    for event in pays:
        pay_once(f"pay#{event.seq}", int(event.merchant.split("-")[1]), False)
    for event in renews:
        pay_once(f"renew#{event.seq}", int(event.merchant.split("-")[1]), True)

    for merchant_id in system.merchant_ids:
        if not system.merchant(merchant_id).pending_deposits():
            continue
        try:
            replies = deployment.run(deployment.deposit_process(merchant_id))
            outcomes.extend(
                f"deposit {merchant_id}: {reply.get('outcome')}" for reply in replies
            )
        except (SimTimeoutError, EcashError) as error:
            outcomes.append(f"deposit {merchant_id}: {type(error).__name__}")

    invariants = checker.check_all()
    return {
        "outcomes": outcomes,
        "invariants": [
            {"name": result.name, "ok": result.ok} for result in invariants
        ],
        "violations": sum(1 for result in invariants if not result.ok),
    }


def _rounded(histogram: StreamingHistogram) -> dict[str, float]:
    """The digested summary layout: count, then mean/min/max/p50/p90/p99
    rounded to six places so reports digest byte-identically (all zero
    when empty)."""
    summary = histogram.summary()
    return {"count": histogram.count} | {
        key: round(summary.get(key, 0.0), 6)
        for key in ("mean", "min", "max", "p50", "p90", "p99")
    }


def results_digest(results: dict[str, Any]) -> str:
    """sha256 over the canonical JSON of the digested section."""
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_campaign(
    config: CampaignConfig,
    *,
    include_protocol: bool = True,
) -> dict[str, Any]:
    """Run one seeded campaign and return its report dict.

    Args:
        config: the determinism boundary — same config ⇒ same ``results``
            section and ``digest``.
        include_protocol: drive the real-crypto protocol slice and the
            safety-invariant checker (on by default; tests that only
            exercise the overlay tier can switch it off).
    """
    started = time.perf_counter()
    ring = ChordRing(
        [f"peer-{i:05d}" for i in range(config.nodes)],
        successor_list_size=config.successor_list_size,
    )
    entries, initial_down = _merged_timeline(config, ring)

    hops = StreamingHistogram()
    availability = StreamingHistogram()
    repair = StreamingHistogram()
    lookup_rng = random.Random(f"campaign:lookups:{config.seed}")
    bytes_by_node: dict[str, int] = {}
    counts = {"joins": 0, "leaves": 0, "flips": 0, "records_moved": 0}
    rebalance_bytes = 0
    joined = 0
    home_up = 0
    lookups = 0
    failed_lookups = 0
    events_by_kind: dict[str, int] = {}
    floor = max(4, config.successor_list_size + 1)

    for at, _tie, _seq, payload in entries:
        if payload[0] == "flip":
            _, name, up = payload
            try:
                ring.set_up(name, up)
            except KeyError:
                continue  # the node left the ring before this flip
            counts["flips"] += 1
        elif payload[0] == "member":
            if payload[1] == "join":
                ops = ring.join(f"peer-x{joined:05d}")
                joined += 1
                counts["joins"] += 1
                repair.observe(ops)
            else:
                if len(ring.nodes) <= floor:
                    continue
                victim = ring.nodes[lookup_rng.randrange(len(ring.nodes))]
                victim_name, victim_id = victim.name, victim.node_id
                ops, moved = ring.leave(victim_name)
                counts["leaves"] += 1
                counts["records_moved"] += moved
                repair.observe(ops)
                moved_bytes = bytes_by_node.pop(victim_name, 0)
                rebalance_bytes += moved_bytes
                if moved_bytes:
                    heir = ring._successor_of(victim_id)
                    bytes_by_node[heir.name] = (
                        bytes_by_node.get(heir.name, 0) + moved_bytes
                    )
        else:
            event = payload[1]
            events_by_kind[event.kind] = events_by_kind.get(event.kind, 0) + 1
            obs.counter_inc("campaign_events_total", kind=event.kind)
            availability.observe(ring.live_count / len(ring.nodes))
            key = chord_id(f"{event.kind}:{event.seq}:{event.actor}")
            index = lookup_rng.randrange(len(ring.nodes))
            start = None
            for probe in range(len(ring.nodes)):
                candidate = ring.nodes[(index + probe) % len(ring.nodes)]
                if candidate.up:
                    start = candidate
                    break
            if start is None:
                failed_lookups += 1
                continue
            try:
                result = ring.lookup(key, start=start)
            except ChordLookupError:
                failed_lookups += 1
                continue
            lookups += 1
            hops.observe(result.hops)
            if ring._successor_of(key).up:
                home_up += 1
            if event.kind == "pay":
                record = _witness_record(event.kind, event.seq, event.actor)
                result.owner.put_local(key, record)
                bytes_by_node[result.owner.name] = (
                    bytes_by_node.get(result.owner.name, 0) + len(record)
                )

    workload = config.workload()
    schedule = generate_events(workload)
    hop_bound = round(
        0.5 * math.log2(max(2, config.nodes)) + HOP_BOUND_CONSTANT, 6
    )
    hop_summary = _rounded(hops)
    results: dict[str, Any] = {
        "workload": {
            "events": event_counts(schedule),
            "schedule_digest": schedule_digest(schedule),
        },
        "lookups": {
            "count": lookups,
            "failed": failed_lookups,
            "hops": hop_summary,
            "mean_hops_bound": hop_bound,
            "within_bound": bool(hop_summary["mean"] <= hop_bound),
            "home_owner_up_ratio": round(home_up / lookups, 6) if lookups else 0.0,
        },
        "availability": {
            "live_fraction": _rounded(availability),
            "initially_down": initial_down,
            "flips": counts["flips"],
        },
        "membership": {
            "joins": counts["joins"],
            "leaves": counts["leaves"],
            "records_moved": counts["records_moved"],
            "rebalance_bytes": rebalance_bytes,
            "final_nodes": len(ring.nodes),
        },
        "metrics": {
            "campaign_events_total": dict(sorted(events_by_kind.items())),
            "chord_lookups_total": lookups,
            "chord_lookup_hops_count": hop_summary["count"],
        },
    }
    if include_protocol:
        slice_report = _protocol_slice(config)
        results["protocol"] = {
            "outcomes": slice_report["outcomes"],
            "invariants": slice_report["invariants"],
            "violations": slice_report["violations"],
        }

    report: dict[str, Any] = {
        "schema": SCHEMA,
        "config": asdict(config),
        "results": results,
        "digest": results_digest(results),
        "engine": {
            "table_builds": ring.table_builds,
            "full_rebuilds_after_bootstrap": ring.table_builds - 1,
            "ring_repair_ops_total": ring.repair_ops,
            "repair_ops_per_event": _rounded(repair),
            "wall_seconds": round(time.perf_counter() - started, 3),
        },
    }
    return report


__all__ = [
    "CampaignConfig",
    "HOP_BOUND_CONSTANT",
    "SCHEMA",
    "results_digest",
    "run_campaign",
]
