"""The in-process layer ladder: each layer timed from outside, through its public calls.

Rung by rung — bigint primitive, perf engine, signature/proof, protocol
step, registry handler, handler + journal — so that a change to one
layer shows up in that layer's number and the rung above it, and the
socket run on top shows what transport and scheduling add. Nothing here
is gated; README says which end-to-end metric each number should move.

The single-process baselines live here too: the full lifecycle through
``net.services.NetworkDeployment`` on the sim transport (the
daemon-vs-sim difference is sockets + framing + process hops) and the
10k-node campaign, whose digest is pinned below.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from bench.deploy import PROTOCOL_NOW, STOREFRONTS, WITNESS, build_system
from bench.workloads import Report

from repro import obs, perf
from repro.core.exceptions import DoubleSpendError
from repro.core.merchant import PaymentRequest
from repro.core.params import default_params
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_deposit, run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import PaymentTranscript
from repro.crypto import backend, blind, counters, representation, schnorr
from repro.crypto.blind import BlindSession, PartiallyBlindSigner
from repro.crypto.representation import RepresentationPair
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.serialize import flatten
from repro.daemon import wire
from repro.daemon.framing import KIND_REQUEST, Frame, FrameDecoder, encode_frame
from repro.net import registry
from repro.net.chord import ChordRing
from repro.net.costmodel import instant_profile
from repro.net.latency import Region, uniform_mesh
from repro.net.services import NetworkDeployment
from repro.net.sim import Simulator
from repro.perf import fixed_base
from repro.scale.campaign import CampaignConfig, run_campaign
from repro.scale.workload import WorkloadConfig, generate_events
from repro.store import Store

#: Coins per in-process protocol measurement (medians over these).
COINS = 30
SHOP = STOREFRONTS[0]

#: The campaign baseline (and its small smoke-test stand-in), each with the
#: digest its results must reproduce.
CAMPAIGN = CampaignConfig(seed=2007, nodes=10000, duration=600.0, payment_rate=50.0)
CAMPAIGN_DIGEST = "cbafbb6550c5cc21240a135f0c94a5ecb146987e29b852895f7f6f59540c7164"
SMOKE_CAMPAIGN = CampaignConfig(seed=2007, nodes=500, duration=60.0, payment_rate=20.0)
SMOKE_CAMPAIGN_DIGEST = "401bf9099b7065533e7703b0929885e8eda53a68b51f55574037db961c92bf32"


def per_call(fn: Callable[[], Any], calls: int = 20, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean seconds per call in a batch of ``calls``."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


class _Ladder:
    def __init__(self, report: Report, seed: int, scratch: Path, smoke: bool) -> None:
        self.report = report
        self.seed = seed
        self.scratch = scratch
        self.ring_nodes = 500 if smoke else CAMPAIGN.nodes
        self.campaign = (
            (SMOKE_CAMPAIGN, SMOKE_CAMPAIGN_DIGEST) if smoke else (CAMPAIGN, CAMPAIGN_DIGEST)
        )
        self.params = default_params()
        self.rng = random.Random(f"bench:layers:{seed}")

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.report.metrics[name] = (value, unit, samples)

    # -- crypto + perf ----------------------------------------------------
    def crypto(self) -> None:
        group, hashes, rng = self.params.group, self.params.hashes, self.rng
        exponent = group.random_scalar(rng)
        powmod = per_call(lambda: backend.powmod(group.g, exponent, group.p), 50)
        self.put("crypto.powmod_us", powmod * 1e6, "us", 250)

        keys = SchnorrKeyPair.generate(group, rng)
        signature = keys.sign("bench", 1, rng=rng)
        self.put("crypto.schnorr_sign_us",
                 per_call(lambda: keys.sign("bench", 1, rng=rng)) * 1e6, "us", 100)
        self.put("crypto.schnorr_verify_us",
                 per_call(lambda: schnorr.verify(group, keys.public, signature, "bench", 1)) * 1e6,
                 "us", 100)

        signer = PartiallyBlindSigner(group, hashes, rng=rng)
        info, message = ("info", 25), (group.g1, group.g2)

        def issue() -> tuple[float, float, Any]:
            spent, (challenge, session) = _timed(lambda: signer.start(info))
            user, blinded = _timed(
                lambda: BlindSession.start(group, hashes, signer.public, info, message, challenge, rng)
            )
            more, response = _timed(lambda: signer.respond(session, blinded.e))
            finish, coin_signature = _timed(lambda: blinded.finish(response))
            return spent + more, user + finish, coin_signature

        issued = [issue() for _ in range(20)]
        self.put("crypto.blind_sign_us", statistics.median(i[0] for i in issued) * 1e6, "us", 20)
        self.put("crypto.blind_user_us", statistics.median(i[1] for i in issued) * 1e6, "us", 20)
        coin_signature = issued[-1][2]
        self.put(
            "crypto.blind_check_us",
            per_call(lambda: blind.check(group, hashes, signer.public, info, message, coin_signature))
            * 1e6, "us", 100)

        pair = RepresentationPair.generate(group, rng)
        a, b = pair.commitments(group)
        d1, d2 = group.random_scalar(rng), group.random_scalar(rng)
        r1 = representation.respond(pair, d1, group.q)
        r2 = representation.respond(pair, d2, group.q)
        self.put("crypto.repr_prove_us",
                 per_call(lambda: representation.respond(pair, d1, group.q), 200) * 1e6, "us", 1000)
        self.put("crypto.repr_verify_us",
                 per_call(lambda: representation.verify_response(group, a, b, d1, r1)) * 1e6,
                 "us", 100)
        self.put(
            "crypto.repr_extract_us",
            per_call(lambda: representation.extract_representations(d1, r1, d2, r2, group.q), 200)
            * 1e6, "us", 1000)

        perf.build_fixed_base(group.g, group.p, group.q)
        fpow = per_call(lambda: fixed_base.fpow(group.g, exponent, group.p, group.q), 50)
        self.put("perf.fpow_us", fpow * 1e6, "us", 250)
        self.put("perf.fpow_speedup", powmod / fpow, "x", 250)
        pairs = [(group.g1, exponent), (group.g2, d1)]
        self.put("perf.multiexp_us",
                 per_call(lambda: perf.multi_exp(group.p, group.q, pairs)) * 1e6, "us", 100)

        def certify_sixteen() -> float:
            claims = perf.ClaimSet()
            for index in range(16):
                signed = keys.sign("claim", index, rng=rng)
                ok, claim = schnorr.check(group, keys.public, signed, "claim", index)
                assert ok and claim is not None
                claims.add(index, [claim], lambda: True)
            spent, bad = _timed(lambda: claims.certify(group.p, group.q, rng))
            assert not bad
            return spent / 16

        self.put("perf.claimset_us_per_item",
                 statistics.median(certify_sixteen() for _ in range(5)) * 1e6, "us", 80)

    # -- core: protocol steps, in process, memory broker --------------------
    def core(self) -> None:
        system = build_system(self.seed)
        client = system.new_client()
        broker, merchant, witness = system.broker, system.merchant(SHOP), system.witness(WITNESS)
        now = PROTOCOL_NOW
        info = system.standard_info(25, now=now)

        totals = [_timed(lambda: run_withdrawal(client, broker, info)) for _ in range(COINS)]
        self.put("core.withdraw_ms", statistics.median(t for t, _ in totals) * 1e3, "ms", COINS)
        coins = [stored for _, stored in totals]
        entries_before = sum(perf.cache_stats().values())
        counter = counters.OpCounter()
        with counters.counting(counter):
            run_payment(client, coins[0], merchant, witness, now)
        self.put("core.exp_per_payment", counter.exp, "count", 1)
        self.put("core.hash_per_payment", counter.hash, "count", 1)
        pays = [_timed(lambda s=s: run_payment(client, s, merchant, witness, now))[0]
                for s in coins[1:]]
        self.put("core.pay_ms", statistics.median(pays) * 1e3, "ms", len(pays))
        self.put("perf.memo_entries_per_payment",
                 (sum(perf.cache_stats().values()) - entries_before) / COINS, "count", COINS)

        def refuse(stored: Any) -> None:
            try:
                run_payment(client, stored, system.merchant(STOREFRONTS[1]), witness, now)
            except DoubleSpendError:
                return
            raise AssertionError("in-process double-spend accepted")

        self.put("core.refuse_ms",
                 statistics.median(_timed(lambda s=s: refuse(s))[0] for s in coins) * 1e3,
                 "ms", COINS)
        spent, results = _timed(lambda: run_deposit(merchant, broker, now))
        assert len(results) == COINS
        self.put("core.deposit_ms", spent / COINS * 1e3, "ms", COINS)

        # Per party, stepping Alg. 1-3 by hand over a second batch of coins.
        steps: dict[str, list[float]] = {
            name: [] for name in ("broker_withdraw", "client_pay", "witness_commit",
                                  "merchant_verify", "witness_sign", "broker_deposit")
        }
        handlers = registry.merchant_dispatch(merchant, SHOP, lambda: now, lambda *call: call)
        witness_sign = registry.witness_dispatch(witness, lambda: now)["witness/sign"]
        deposit = registry.broker_dispatch(broker, lambda: now)["deposit"]
        dispatch_pay, dispatch_deposit, codec = [], [], []
        for index in range(COINS):
            in_broker, stored = _withdraw(system, client, info)
            steps["broker_withdraw"].append(in_broker)

            prepare, (request, pending) = _timed(
                lambda: client.prepare_commitment_request(stored, SHOP, now))
            commit, commitment = _timed(lambda: witness.request_commitment(request, now))
            build, transcript = _timed(
                lambda: client.build_payment(pending, commitment, witness.public_key, now))
            steps["client_pay"].append(prepare + build)
            steps["witness_commit"].append(commit)
            codec.append(_timed(lambda: PaymentTranscript.from_wire(
                registry.strip_prefix(flatten(transcript.to_wire()), "")))[0])
            if index % 2:
                # Through the registry handler, witness reply computed off the clock.
                payload = {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()}
                handler = handlers["pay"](_roundtrip("pay", payload))
                first, call = _timed(lambda: handler.send(None))
                reply = witness_sign(_roundtrip("witness/sign", call[2]))

                def finish() -> None:
                    try:
                        handler.send(_roundtrip_reply("witness/sign", reply))
                    except StopIteration:
                        return
                    raise AssertionError("pay handler did not finish")

                dispatch_pay.append(first + _timed(finish)[0])
            else:
                payment = PaymentRequest(transcript=transcript, commitment=commitment)
                verify, _ = _timed(lambda: merchant.verify_payment_request(payment, now))
                sign, signed = _timed(lambda: witness.sign_transcript(transcript, now))
                accept, _ = _timed(lambda: merchant.accept_signed_transcript(signed, now))
                steps["merchant_verify"].append(verify + accept)
                steps["witness_sign"].append(sign)
        for index, signed in enumerate(merchant.pending_deposits()):
            if index % 2:
                payload = {"merchant_id": SHOP, "signed": signed.to_wire()}
                dispatch_deposit.append(_timed(lambda: deposit(_roundtrip("deposit", payload)))[0])
            else:
                steps["broker_deposit"].append(
                    _timed(lambda: broker.deposit(SHOP, signed, now))[0])
            merchant.mark_deposited(signed)
        for name, samples in steps.items():
            self.put(f"core.{name}_ms", statistics.median(samples) * 1e3, "ms", len(samples))
        self.put("crypto.transcript_codec_us", statistics.median(codec) * 1e6, "us", COINS)
        self.put("net.dispatch_pay_ms", statistics.median(dispatch_pay) * 1e3, "ms",
                 len(dispatch_pay))
        self.put("net.dispatch_deposit_ms", statistics.median(dispatch_deposit) * 1e3, "ms",
                 len(dispatch_deposit))

        # Telemetry budget: the same payment with obs collecting.
        fresh = [run_withdrawal(client, broker, info) for _ in range(COINS)]
        off = [_timed(lambda s=s: run_payment(client, s, merchant, witness, now))[0]
               for s in fresh[::2]]
        with obs.enabled():
            on = [_timed(lambda s=s: run_payment(client, s, merchant, witness, now))[0]
                  for s in fresh[1::2]]
        obs.reset()
        self.put("obs.on_pay_overhead_pct",
                 (statistics.median(on) / statistics.median(off) - 1.0) * 100.0, "%", COINS)

        def null_span() -> None:
            with obs.span("bench.off"):
                pass

        self.put("obs.span_off_ns", per_call(null_span, 2000) * 1e9, "ns", 10000)

    # -- store: the journal under the broker --------------------------------
    def store(self) -> None:
        directory = self.scratch / f"layers-{os.getpid()}-{time.time_ns()}"
        directory.mkdir(parents=True)
        try:
            self._store(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _store(self, directory: Path) -> None:
        block = b"x" * 4096
        with open(directory / "fsync.probe", "ab") as probe:
            def append_and_sync() -> None:
                probe.write(block)
                probe.flush()
                os.fsync(probe.fileno())

            self.put("store.fsync_ms", per_call(append_and_sync, 10) * 1e3, "ms", 50)

        now = PROTOCOL_NOW
        plain, durable = build_system(self.seed), build_system(self.seed)
        store = Store(directory / "state", backend="sqlite", shards=4)
        attach_broker_store(durable.broker, store)
        store.flush()
        baseline = _tree_bytes(directory / "state")

        def withdraw_and_pay(system: EcashSystem) -> list[float]:
            client, merchant = system.new_client(), system.merchant(SHOP)
            info = system.standard_info(25, now=now)
            in_broker = []
            for _ in range(COINS):
                spent, stored = _withdraw(system, client, info)
                in_broker.append(spent)
                run_payment(client, stored, merchant, system.witness(WITNESS), now)
            return in_broker

        def deposit_all(system: EcashSystem) -> list[float]:
            merchant, in_broker = system.merchant(SHOP), []
            for signed in merchant.pending_deposits():
                in_broker.append(_timed(lambda: system.broker.deposit(SHOP, signed, now))[0])
                merchant.mark_deposited(signed)
            return in_broker

        def fsyncs() -> int:
            return sum(shard.wal.fsync_count for shard in store.shards)

        plain_withdraw = statistics.median(withdraw_and_pay(plain))
        plain_deposit = statistics.median(deposit_all(plain))
        syncs = fsyncs()
        withdraw = withdraw_and_pay(durable)
        self.put("store.fsyncs_per_withdraw", (fsyncs() - syncs) / COINS, "count", COINS)
        syncs, wal = fsyncs(), store.wal_bytes()
        deposit = deposit_all(durable)
        self.put("store.fsyncs_per_deposit", (fsyncs() - syncs) / COINS, "count", COINS)
        self.put("store.wal_bytes_per_deposit", (store.wal_bytes() - wal) / COINS, "B", COINS)
        self.put("store.journal_withdraw_ms",
                 (statistics.median(withdraw) - plain_withdraw) * 1e3, "ms", COINS)
        self.put("store.journal_deposit_ms",
                 (statistics.median(deposit) - plain_deposit) * 1e3, "ms", COINS)

        store.flush()
        self.put("store.state_bytes_per_coin",
                 (_tree_bytes(directory / "state") - baseline) / COINS, "B", COINS)

        record = {"signed": "s" * 1400, "deposited_at": now}

        def one_operation() -> None:
            with store.operation():
                store.put("bench", f"{self.rng.getrandbits(64):016x}", record)
                store.put("bench-ledger", f"{self.rng.getrandbits(64):016x}", {"amount": 25})

        self.put("store.op_commit_ms", per_call(one_operation, 10) * 1e3, "ms", 50)
        store.close()

        reopened = Store(directory / "state", backend="sqlite", shards=4)
        spent, stats = _timed(lambda: attach_broker_store(build_system(self.seed).broker, reopened))
        records = stats.snapshot_records + stats.replayed_records
        self.put("store.recover_ms_per_krecord", spent * 1e3 / records * 1000.0, "ms", records)
        self.put("store.compact_ms", _timed(reopened.compact)[0] * 1e3, "ms", 1)
        reopened.close()

    # -- daemon codecs, net, scale -----------------------------------------
    def codecs(self) -> None:
        system = build_system(self.seed)
        client = system.new_client()
        witness, now = system.witness(WITNESS), PROTOCOL_NOW
        stored = run_withdrawal(client, system.broker, system.standard_info(25, now=now))
        request, pending = client.prepare_commitment_request(stored, SHOP, now)
        commitment = witness.request_commitment(request, now)
        transcript = client.build_payment(pending, commitment, witness.public_key, now)
        payload = {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()}
        body = wire.request_body("pay", payload)

        def frame_roundtrip() -> None:
            frames = FrameDecoder().feed(encode_frame(Frame(KIND_REQUEST, 1, body)))
            assert len(frames) == 1

        self.put("daemon.frame_codec_us", per_call(frame_roundtrip, 200) * 1e6, "us", 1000)
        self.put("daemon.wire_codec_us",
                 per_call(lambda: wire.parse_request(wire.request_body("pay", payload)), 50) * 1e6,
                 "us", 250)

    def net(self) -> None:
        ring = ChordRing([f"peer-{i:05d}" for i in range(self.ring_nodes)], 4)
        keys = [self.rng.getrandbits(160) for _ in range(2000)]
        lookups, results = _timed(lambda: [ring.lookup(key) for key in keys])
        self.put("net.chord_lookup_us", lookups / len(keys) * 1e6, "us", len(keys))
        self.put("net.chord_hops_mean", statistics.fmean(r.hops for r in results), "count",
                 len(keys))
        before = ring.repair_ops
        for index in range(20):
            ring.join(f"joiner-{index:03d}")
            ring.leave(f"peer-{index * 7:05d}")
        self.put("net.chord_repair_ops_per_event", (ring.repair_ops - before) / 40, "count", 40)

        def drain() -> float:
            sim = Simulator()
            for index in range(100_000):
                sim.schedule(index * 1e-3, _nothing)
            return _timed(sim.run)[0]

        self.put("net.sim_events_per_s", 100_000 / statistics.median(drain() for _ in range(3)),
                 "events/s", 300_000)

        def sim_lifecycle() -> float:
            system = build_system(self.seed)
            dep = NetworkDeployment(
                system, cost_model=instant_profile(),
                latency=uniform_mesh(list(Region), one_way=0.001, jitter=0.0), seed=0)
            dep.add_client("client-0")
            info = system.standard_info(25, now=0)
            started = time.perf_counter()
            for _ in range(COINS):
                stored = dep.run(dep.withdrawal_process("client-0", info))
                receipt = dep.run(dep.payment_process("client-0", stored, SHOP))
                assert receipt.amount == 25
            results = dep.run(dep.deposit_process(SHOP))
            assert [str(r["outcome"]) for r in results] == ["credited"] * COINS
            return COINS / (time.perf_counter() - started)

        self.put("net.sim_lifecycle_per_s", statistics.median(sim_lifecycle() for _ in range(3)),
                 "coins/s", 3 * COINS)

    def scale(self) -> None:
        config = WorkloadConfig(seed=self.seed, duration=600.0, payment_rate=50.0)
        spent, events = _timed(lambda: generate_events(config))
        self.put("scale.workload_events_per_s", len(events) / spent, "events/s", len(events))
        config, digest = self.campaign
        spent, campaign = _timed(lambda: run_campaign(config))
        if campaign["digest"] != digest:
            self.report.problems.append(
                f"campaign digest {campaign['digest']} differs from the pinned one")
        events_run = sum(campaign["results"]["workload"]["events"].values())
        self.put("scale.campaign_events_per_s", events_run / spent, "events/s", events_run)


def _withdraw(system: EcashSystem, client: Any, info: Any) -> tuple[float, Any]:
    """One withdrawal stepped by hand: (seconds inside the broker's two calls, coin)."""
    broker = system.broker
    begin, (ticket, challenge) = _timed(lambda: broker.begin_withdrawal(info))
    session = client.begin_withdrawal(info, challenge)
    complete, response = _timed(lambda: broker.complete_withdrawal(ticket, session.e))
    stored = client.finish_withdrawal(session, response, broker.tables[info.list_version])
    return begin + complete, stored


def _tree_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


def _nothing() -> None:
    return None


def _roundtrip(method: str, payload: dict[str, Any]) -> dict[str, Any]:
    """What a handler receives: the payload after a trip through the wire codec."""
    return wire.parse_request(wire.request_body(method, payload))[1]


def _roundtrip_reply(method: str, payload: dict[str, Any]) -> dict[str, Any]:
    return wire.parse_response(wire.response_body(method, payload))


def measure_layers(report: Report, seed: int, scratch: Path, smoke: bool = False) -> None:
    """Add every in-process per-layer metric to ``report``.

    ``smoke`` shrinks the overlay and the campaign to 500 nodes (tests only).
    """
    ladder = _Ladder(report, seed, scratch, smoke)
    for rung in (ladder.crypto, ladder.core, ladder.store, ladder.codecs, ladder.net,
                 ladder.scale):
        rung()
