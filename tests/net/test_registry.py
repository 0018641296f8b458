"""The shared method registry: tables, flows, and sim equivalence."""

import pytest

from repro.core.exceptions import DoubleSpendError, ProtocolViolationError
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto.serialize import (
    KEY_ABBREVIATIONS,
    decode,
    encode,
    pack_batch,
)
from repro.daemon import wire
from repro.net import registry
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment


@pytest.fixture()
def deployment(params):
    system = EcashSystem(params=params, seed=17)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=17)
    dep.add_client("client-0")
    return system, dep


class TestDispatchTables:
    def test_broker_table_matches_method_namespace(self, system):
        table = registry.broker_dispatch(system.broker, lambda: 0)
        assert tuple(table) == registry.BROKER_METHODS

    def test_witness_table_matches_method_namespace(self, system):
        table = registry.witness_dispatch(system.witness("alice-books"), lambda: 0)
        assert tuple(table) == registry.WITNESS_METHODS

    def test_merchant_table_matches_method_namespace(self, system):
        table = registry.merchant_dispatch(
            system.merchant("alice-books"), "alice-books", lambda: 0, rpc=None
        )
        assert tuple(table) == registry.MERCHANT_METHODS


class TestDepositBatchBound:
    """``deposit/batch`` is bounded where it arrives, not only where
    ``batch_deposit_flow`` sends it."""

    SHOP = "alice-books"

    def wire_items(self, system, count):
        client = system.new_client()
        shop = system.merchant(self.SHOP)
        while len(shop.pending_deposits()) < count:
            stored = run_withdrawal(client, system.broker, system.standard_info(5, 0))
            if stored.coin.witness_id != self.SHOP:
                run_payment(client, stored, shop, system.witness_of(stored), 0)
        return [signed.to_wire() for signed in shop.pending_deposits()]

    def test_longer_batch_is_refused_before_anything_settles(self, system):
        items = self.wire_items(system, registry.DEPOSIT_BATCH_SIZE + 1)
        handler = registry.broker_dispatch(system.broker, lambda: 0)["deposit/batch"]
        with pytest.raises(ProtocolViolationError, match="33 transcripts"):
            handler({"merchant_id": self.SHOP, "batch": pack_batch("t", items)})
        assert not system.broker._deposits
        assert system.broker.merchant_balance(self.SHOP) == 0

        reply = handler({"merchant_id": self.SHOP, "batch": pack_batch("t", items[:-1])})
        assert [reply[f"r{index}"]["outcome"] for index in range(32)] == ["credited"] * 32
        assert system.broker.merchant_balance(self.SHOP) == 32 * 5

    def test_refusal_reaches_the_caller_over_the_sim(self, deployment):
        system, dep = deployment
        items = self.wire_items(system, registry.DEPOSIT_BATCH_SIZE + 1)

        def oversized():
            yield registry.RemoteCall(
                "broker",
                "deposit/batch",
                {"merchant_id": self.SHOP, "batch": pack_batch("t", items)},
            )

        with pytest.raises(ProtocolViolationError):
            dep.run(dep.run_flow(self.SHOP, oversized()))
        assert system.broker.merchant_balance(self.SHOP) == 0


class TestBatchWithdrawalIndices:
    """``withdraw/batch-complete`` answers session k with ``es.e{k}``, so
    a request must carry exactly ``es.e0`` .. ``es.e{n-1}``."""

    def test_a_misnumbered_request_is_refused_and_the_ticket_kept(self, system):
        client = system.new_client()
        table = registry.broker_dispatch(system.broker, lambda: 0)

        def serve(method, payload):
            name, fields = wire.parse_request(wire.request_body(method, payload))
            return table[name](fields)

        infos = [system.standard_info(25, now=0), system.standard_info(5, now=0)]
        flow = registry.batch_withdrawal_flow(client, "broker", system.broker.tables, infos)
        begin = next(flow)
        complete = flow.send(serve(begin.method, begin.payload))
        es = complete.payload["es"]
        for wrong in (
            {"e0": es["e0"], "e5": es["e1"]},
            {"e0": es["e0"], "eone": es["e1"]},
            {"e1": es["e0"], "e2": es["e1"]},
        ):
            with pytest.raises(ProtocolViolationError, match="es.e0..es.e1"):
                serve(complete.method, {**complete.payload, "es": wrong})

        with pytest.raises(StopIteration) as done:
            flow.send(serve(complete.method, complete.payload))
        coins = done.value.value
        assert [stored.coin.denomination for stored in coins] == [25, 5]
        for stored in coins:
            stored.coin.ensure_valid_signature(system.params, system.broker.blind_public)


class TestFlowsOverSim:
    """The transport-neutral flows, driven by the sim's run_flow."""

    def withdraw(self, system, dep):
        info = system.standard_info(25, now=dep.now())
        client = dep.clients["client-0"]
        return dep.run(
            dep.run_flow(
                "client-0",
                registry.withdrawal_flow(client, "broker", system.broker.tables, info),
            )
        )

    def test_withdrawal_flow(self, deployment):
        system, dep = deployment
        stored = self.withdraw(system, dep)
        assert stored.coin.denomination == 25
        assert stored in dep.clients["client-0"].wallet.coins

    def test_the_sim_leaves_the_meanwhile_hint_unread(self, deployment, monkeypatch):
        """Compute is charged to simulated time between yields, so the sim
        blinds where it always did: after the broker's ``(a, b)`` are in."""
        system, dep = deployment
        client = dep.clients["client-0"]
        events = []
        begin, prepare = system.broker.begin_withdrawal, client.prepare_withdrawal

        def logging_begin(info):
            events.append("broker begins")
            return begin(info)

        def logging_prepare(info):
            prepared = prepare(info)

            def logged():
                events.append("client blinds")
                return prepared()

            return logged

        monkeypatch.setattr(system.broker, "begin_withdrawal", logging_begin)
        monkeypatch.setattr(client, "prepare_withdrawal", logging_prepare)
        stored = self.withdraw(system, dep)
        assert events == ["broker begins", "client blinds"]
        assert stored.coin.bare.verify_signature(system.params, system.broker.blind_public)

    def test_payment_and_deposit_flows(self, deployment):
        system, dep = deployment
        stored = self.withdraw(system, dep)
        client = dep.clients["client-0"]
        merchant_id = next(
            m for m in system.merchant_ids if m != stored.coin.witness_id
        )
        witness_public = system.merchant(merchant_id).witness_keys[
            stored.coin.witness_id
        ]
        amount = dep.run(
            dep.run_flow(
                "client-0",
                registry.payment_flow(
                    client, stored, merchant_id, witness_public, dep.now
                ),
            )
        )
        assert amount == 25
        results = dep.run(
            dep.run_flow(
                merchant_id,
                registry.deposit_flow(
                    system.merchant(merchant_id), merchant_id, "broker"
                ),
            )
        )
        assert results == [{"outcome": "credited", "amount": 25}]
        assert system.broker.merchant_balance(merchant_id) == 25

    def test_direct_spend_flow_refused_on_double_spend(self, deployment):
        system, dep = deployment
        stored = self.withdraw(system, dep)
        client = dep.clients["client-0"]
        others = [m for m in system.merchant_ids if m != stored.coin.witness_id]
        witness_public = system.merchant(others[0]).witness_keys[
            stored.coin.witness_id
        ]
        dep.run(dep.payment_process("client-0", stored, others[0]))
        dep.sim.schedule(200.0, lambda: None)
        dep.sim.run()
        client.wallet.add(stored)
        with pytest.raises(DoubleSpendError) as refusal:
            dep.run(
                dep.run_flow(
                    "client-0",
                    registry.direct_spend_flow(
                        client, stored, others[1], witness_public, dep.now
                    ),
                )
            )
        assert refusal.value.proof.verify(system.params, stored.coin)


class TestBatchDepositFlow:
    """The flow's framing, driven by hand: no broker, scripted replies."""

    class Storefront:
        def __init__(self, count):
            self.pending = [self.Transcript(index) for index in range(count)]
            self.deposited = []

        class Transcript:
            def __init__(self, index):
                self.index = index

            def to_wire(self):
                return {"n": self.index}

        def pending_deposits(self):
            return list(self.pending)

        def mark_deposited(self, signed):
            self.pending.remove(signed)
            self.deposited.append(signed)

    def drive(self, flow, answer):
        calls = []
        try:
            call = next(flow)
            while True:
                calls.append(call)
                call = flow.send(answer(call))
        except StopIteration as stop:
            return calls, stop.value

    def test_seventy_pending_travel_as_32_32_6(self):
        shop = self.Storefront(70)

        def credit_all(call):
            return {
                key.replace("t", "r"): {"outcome": "credited", "amount": item["n"]}
                for key, item in call.payload["batch"].items()
            }

        calls, results = self.drive(
            registry.batch_deposit_flow(shop, "shop", "broker"), credit_all
        )
        assert [(c.destination, c.method) for c in calls] == [("broker", "deposit/batch")] * 3
        assert [len(c.payload["batch"]) for c in calls] == [32, 32, 6]
        assert all(c.payload["merchant_id"] == "shop" for c in calls)
        assert max(len(c.payload["batch"]) for c in calls) == registry.DEPOSIT_BATCH_SIZE
        # Results and marks follow acceptance order across the chunks.
        assert results == [{"outcome": "credited", "amount": n} for n in range(70)]
        assert [t.index for t in shop.deposited] == list(range(70))
        assert not shop.pending

    def test_each_call_names_the_next_chunks_call_ahead(self):
        """``ahead`` builds the next chunk's call only when asked, and the
        flow then yields that very object; the last call names none."""
        shop = self.Storefront(70)
        built = []
        to_wire = self.Storefront.Transcript.to_wire

        def counting_to_wire(transcript):
            built.append(transcript.index)
            return to_wire(transcript)

        self.Storefront.Transcript.to_wire = counting_to_wire
        try:
            flow = registry.batch_deposit_flow(shop, "shop", "broker")
            first = next(flow)
            assert built == list(range(32))
            second = first.ahead()
            assert built == list(range(64))
            assert flow.send({}) is second
            third = second.ahead()
            assert flow.send({}) is third
        finally:
            self.Storefront.Transcript.to_wire = to_wire
        assert built == list(range(70))  # each chunk encoded once
        assert [len(c.payload["batch"]) for c in (first, second, third)] == [32, 32, 6]
        assert third.ahead is None

    def test_rejected_items_stay_pending(self):
        shop = self.Storefront(3)

        def reject_middle(call):
            return {
                "r0": {"outcome": "credited", "amount": 1},
                "r1": {"kind": "InvalidPaymentError", "error": "bad proof"},
                "r2": {"outcome": "credited", "amount": 1},
            }

        _, results = self.drive(
            registry.batch_deposit_flow(shop, "shop", "broker"), reject_middle
        )
        assert results[1] == {"error": "bad proof", "kind": "InvalidPaymentError"}
        assert [t.index for t in shop.pending] == [1]

    def test_explicit_transcripts_override_the_pending_list(self):
        shop = self.Storefront(5)
        calls, _ = self.drive(
            registry.batch_deposit_flow(shop, "shop", "broker", shop.pending[3:]),
            lambda call: {},
        )
        assert [sorted(c.payload["batch"]) for c in calls] == [["t0", "t1"]]
        assert [item["n"] for item in calls[0].payload["batch"].values()] == [3, 4]

    def test_nothing_pending_sends_nothing(self):
        calls, results = self.drive(
            registry.batch_deposit_flow(self.Storefront(0), "shop", "broker"),
            lambda call: {},
        )
        assert calls == [] and results == []


class TestWireKeyHygiene:
    """Payload keys must survive an encode/decode round-trip.

    The sim hands payload dicts to handlers directly, but the daemons
    URL-encode them — a key that is an abbreviation *short form* without
    being a long form (``"e"``, ``"s"``, ``"b"``, ...) would be expanded
    to something else on the far side. Every key the registry declares
    is held to the round-trip in ``tests/net/test_wire_schema.py``.
    """

    def test_short_form_keys_do_not_roundtrip(self):
        # The hazard this class guards against: ``e`` would come back as
        # ``sig_e``, so the codec refuses to send it.
        assert KEY_ABBREVIATIONS["sig_e"] == "e"
        assert sorted(decode("e=AQ")) != ["e"]
        with pytest.raises(ValueError, match="short form"):
            encode({"e": 1})
