"""Each party encodes each coin object at most once.

A bare coin, a full coin and a payment transcript are hashed in several
checks of one protocol step (``h(bare coin)`` for the range check, the
challenge ``d = H0(C, I_M, date)``, the witness's signature over the
transcript); every one of those hashes splices the object's cached
encoding. Held here the way ``tests/test_import_budget.py`` holds a
daemon's imports — by counting, not timing: ``hash_parts()`` is what an
encoding is built from, so it runs at most once per object through a
client's withdrawal and ``build_payment``, a ``witness/sign``, a
storefront ``pay`` (verify, then accept the countersigned transcript)
and a broker ``deposit/batch``. Each handler parses its own objects from
the wire, as it does in its own process.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.coin import BareCoin, Coin
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import PaymentTranscript
from repro.crypto.serialize import pack_batch
from repro.net import registry

NOW = 10


@pytest.fixture()
def encodings(monkeypatch):
    """``{(type name, id): hash_parts() calls}``; the objects are kept
    alive so no id is reused by a later object."""
    counts: Counter[tuple[str, int]] = Counter()
    alive: list[object] = []
    for cls in (BareCoin, Coin, PaymentTranscript):
        original = cls.hash_parts

        def counted(self, _original=original):
            counts[type(self).__name__, id(self)] += 1
            alive.append(self)
            return _original(self)

        monkeypatch.setattr(cls, "hash_parts", counted)
    return counts


def _phase(counts: Counter, run):
    """``run()``'s result and the encodings made while it ran."""
    before = Counter(counts)
    result = run()
    return result, counts - before


def test_every_party_encodes_each_coin_object_once(params, encodings):
    system = EcashSystem(params=params, seed=17)
    clock = lambda: NOW  # noqa: E731 - a fixed clock
    client = system.new_client()

    def client_side():
        stored = run_withdrawal(client, system.broker, system.standard_info(25, 0))
        merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
        request, pending = client.prepare_commitment_request(stored, merchant_id, NOW)
        witness = system.witness_of(stored)
        commitment = witness.request_commitment(request, NOW)
        transcript = client.build_payment(pending, commitment, witness.public_key, NOW)
        return stored, merchant_id, commitment, transcript

    (stored, merchant_id, commitment, transcript), by_client = _phase(encodings, client_side)
    witness_id = stored.coin.witness_id
    merchant = system.merchant(merchant_id)
    sign = registry.witness_dispatch(system.witness(witness_id), clock)["witness/sign"]
    # The storefront's ``rpc`` hands back the call it was asked to make.
    pay = registry.merchant_dispatch(merchant, merchant_id, clock, rpc=lambda *call: call)["pay"]

    def storefront_verifies():
        flow = pay({"transcript": transcript.to_wire(), "commitment": commitment.to_wire()})
        return flow, next(flow)

    (flow, pending), by_storefront = _phase(encodings, storefront_verifies)
    (destination, method, to_sign) = pending
    assert (destination, method) == (witness_id, "witness/sign")
    reply, by_witness = _phase(encodings, lambda: sign(to_sign))
    assert reply["status"] == "ok"

    def storefront_accepts():
        with pytest.raises(StopIteration) as done:
            flow.send(reply)
        return done.value.value

    receipt, accepted = _phase(encodings, storefront_accepts)
    assert receipt == {"status": "service", "amount": 25}
    by_storefront.update(accepted)

    (signed,) = merchant.pending_deposits()
    deposit = registry.broker_dispatch(system.broker, clock)["deposit/batch"]
    batch = {"merchant_id": merchant_id, "batch": pack_batch("t", [signed.to_wire()])}
    settled, by_broker = _phase(encodings, lambda: deposit(batch))
    assert settled["r0"]["outcome"] == "credited"

    for party, counted in (
        ("client", by_client),
        ("storefront", by_storefront),
        ("witness", by_witness),
        ("broker", by_broker),
    ):
        kinds = {kind for kind, _ in counted}
        assert {"BareCoin", "Coin"} <= kinds, (party, counted)
        assert max(counted.values()) == 1, (party, counted)
    # No object is encoded by two phases either: each handler parses its own.
    assert max(encodings.values()) == 1
