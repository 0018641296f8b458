"""The ``pay`` handler's call-before-verify, yield-after-verify ordering.

The storefront hands ``witness/sign`` to its ``rpc`` hook *before* its own
cryptographic checks whenever the comparison-only gate holds, and in no
other case; the sim, which sends at the yield, must behave exactly as it
did when the handler verified first.
"""

import copy

import pytest

from repro.core.exceptions import (
    CommitmentError,
    EcashError,
    ExpiredCoinError,
    InvalidPaymentError,
)
from repro.core.merchant import PaymentRequest
from repro.core.system import EcashSystem
from repro.core.transcripts import (
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
)
from repro.crypto.counters import OpCounter
from repro.crypto.serialize import decode, encode, flatten, unflatten
from repro.net import registry
from repro.net.costmodel import python2006_profile
from repro.net.services import NetworkDeployment
from tests.conftest import other_merchant

NOW = 10


class _Answered:
    """What the recording hook returns: the witness's reply, already here."""

    def __init__(self, reply):
        self.reply = reply
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _Shop:
    """One storefront's ``pay`` handler over a recording, in-process hook."""

    def __init__(self, system, merchant_id, now=NOW):
        self.now = now
        self.events = []
        self.answers = []
        self.merchant = system.merchant(merchant_id)
        self._system = system
        verify = self.merchant.verify_payment_request

        def recorded_verify(request, now):
            verify(request, now)
            self.events.append("verified")

        self.merchant.verify_payment_request = recorded_verify
        self.pay = registry.merchant_dispatch(
            self.merchant, merchant_id, lambda: self.now, self._rpc
        )["pay"]

    def _rpc(self, destination, method, payload):
        self.events.append(method)
        handler = registry.witness_dispatch(
            self._system.witness(destination), lambda: self.now
        )[method]
        try:
            answer = _Answered(_over_the_wire(handler(_over_the_wire(payload))))
        except EcashError as refusal:
            answer = _Answered(refusal)
        self.answers.append(answer)
        return answer

    def serve(self, payload):
        """Drive the handler as a transport would; returns its reply."""
        handler = self.pay(_over_the_wire(payload))
        pending = handler.send(None)
        try:
            if isinstance(pending.reply, Exception):
                handler.throw(pending.reply)
            else:
                handler.send(pending.reply)
        except StopIteration as stop:
            return stop.value
        raise AssertionError("pay handler yielded twice")


def _over_the_wire(payload):
    return unflatten(decode(encode(payload)))


def _request(system, client, stored, merchant_id, now=NOW):
    witness = system.witness_of(stored)
    request, pending = client.prepare_commitment_request(stored, merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    return transcript, commitment


def _payload(transcript, commitment):
    return {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()}


def _witness_state(witness):
    return copy.copy(witness._spent), copy.copy(witness._commitments)


@pytest.fixture()
def parties(system, funded_client):
    client, stored = funded_client
    return client, stored, other_merchant(system, stored.coin.witness_id)


def test_honest_request_is_forwarded_before_it_is_verified(system, parties):
    client, stored, merchant_id = parties
    shop = _Shop(system, merchant_id)
    reply = shop.serve(_payload(*_request(system, client, stored, merchant_id)))
    assert shop.events == ["witness/sign", "verified"]
    assert reply == {"status": "service", "amount": 25}
    assert len(shop.merchant.pending_deposits()) == 1
    assert not shop.answers[0].cancelled


def _expired_commitment(system, client, stored, merchant_id):
    transcript, commitment = _request(system, client, stored, merchant_id)
    return _payload(transcript, commitment), commitment.expires_at, CommitmentError


def _soft_expired_coin(system, client, stored, merchant_id):
    payload = _payload(*_request(system, client, stored, merchant_id))
    return payload, stored.coin.info.soft_expiry, ExpiredCoinError


def _other_merchants_name(system, client, stored, merchant_id):
    elsewhere = next(
        m for m in system.merchant_ids if m not in (merchant_id, stored.coin.witness_id)
    )
    payload = _payload(*_request(system, client, stored, elsewhere))
    return payload, NOW, InvalidPaymentError


def _unknown_witness(system, client, stored, merchant_id):
    payload = _payload(*_request(system, client, stored, merchant_id))
    del system.merchant(merchant_id).witness_keys[stored.coin.witness_id]
    return payload, NOW, InvalidPaymentError


def _commitment_from_another_witness(system, client, stored, merchant_id):
    transcript, commitment = _request(system, client, stored, merchant_id)
    foreign = WitnessCommitment(
        witness_id=merchant_id,
        coin_hash=commitment.coin_hash,
        nonce=commitment.nonce,
        v_hash=commitment.v_hash,
        expires_at=commitment.expires_at,
        signature=commitment.signature,
    )
    return _payload(transcript, foreign), NOW, CommitmentError


@pytest.mark.parametrize(
    "build",
    [
        _expired_commitment,
        _soft_expired_coin,
        _other_merchants_name,
        _unknown_witness,
        _commitment_from_another_witness,
    ],
)
def test_a_request_the_gate_stops_never_reaches_the_witness(system, parties, build):
    client, stored, merchant_id = parties
    payload, now, expected = build(system, client, stored, merchant_id)
    shop = _Shop(system, merchant_id, now)
    witness = system.witness_of(stored)
    before = _witness_state(witness)

    # The seed's verdict: what verification alone says about the request.
    flat = flatten(_over_the_wire(payload))
    request = PaymentRequest(
        transcript=PaymentTranscript.from_wire(
            registry.strip_prefix(flat, "transcript.")
        ),
        commitment=WitnessCommitment.from_wire(
            registry.strip_prefix(flat, "commitment.")
        ),
    )
    assert not shop.merchant.may_forward_early(request, now)
    with pytest.raises(expected) as verdict:
        shop.merchant.verify_payment_request(request, now)

    with pytest.raises(expected) as served:
        shop.serve(payload)
    assert str(served.value) == str(verdict.value)
    assert shop.events == []
    assert _witness_state(witness) == before
    assert not shop.merchant._seen_bare_coins


def test_a_replay_at_the_same_storefront_never_reaches_the_witness(system, parties):
    client, stored, merchant_id = parties
    shop = _Shop(system, merchant_id)
    payload = _payload(*_request(system, client, stored, merchant_id))
    shop.serve(payload)
    shop.events.clear()
    witness = system.witness_of(stored)
    before = _witness_state(witness)
    with pytest.raises(
        InvalidPaymentError, match="already accepted a payment with this coin"
    ):
        shop.serve(payload)
    assert shop.events == []
    assert _witness_state(witness) == before
    assert len(shop.merchant.pending_deposits()) == 1


def test_a_forged_request_is_cancelled_and_never_accepted(system, parties):
    """Past the gate only a forging payer fails: the call it triggered is
    cancelled, the storefront's own verdict is what the payer gets."""
    client, stored, merchant_id = parties
    transcript, commitment = _request(system, client, stored, merchant_id)
    forged = WitnessCommitment(
        witness_id=commitment.witness_id,
        coin_hash=commitment.coin_hash,
        nonce=commitment.nonce,
        v_hash=commitment.v_hash,
        expires_at=commitment.expires_at,
        signature=type(commitment.signature)(
            e=commitment.signature.e, s=commitment.signature.s + 1
        ),
    )
    shop = _Shop(system, merchant_id)
    handler = shop.pay(_over_the_wire(_payload(transcript, forged)))
    with pytest.raises(
        CommitmentError, match="witness signature on commitment failed to verify"
    ):
        handler.send(None)
    assert shop.events == ["witness/sign"]
    assert shop.answers[0].cancelled
    assert not shop.merchant._seen_bare_coins and not shop.merchant.pending_deposits()


def test_table1_payment_rows_through_the_handler(system, parties):
    """Merchant 7 Exp 6 Hash 3 Ver; the witness's signing step 7 Exp 5 Hash
    1 Ver 1 Sig (its commitment's 1 Hash 1 Sig completes the paper's row)."""
    client, stored, merchant_id = parties
    payload = _payload(*_request(system, client, stored, merchant_id))
    shop = _Shop(system, merchant_id)
    witness_ops = OpCounter()
    rpc = shop._rpc

    def counted_rpc(destination, method, payload):
        with witness_ops:
            return rpc(destination, method, payload)

    shop.pay = registry.merchant_dispatch(
        shop.merchant, merchant_id, lambda: NOW, counted_rpc
    )["pay"]
    with OpCounter() as merchant_ops:  # the nested witness counter takes its own
        shop.serve(payload)
    assert (merchant_ops.exp, merchant_ops.hash, merchant_ops.ver) == (7, 6, 3)
    assert witness_ops.snapshot() == (7, 5, 1, 1)  # exp, hash, sig, ver


# ----------------------------------------------------------------------
# The sim sends at the yield: nothing about a simulated payment moves.
# ----------------------------------------------------------------------
def _verify_then_call(merchant, clock, rpc):
    """The handler as it was before the overlap: verify, then call."""

    def pay(payload):
        flat = flatten(payload)
        transcript = PaymentTranscript.from_wire(
            registry.strip_prefix(flat, "transcript.")
        )
        commitment = WitnessCommitment.from_wire(
            registry.strip_prefix(flat, "commitment.")
        )
        merchant.verify_payment_request(
            PaymentRequest(transcript=transcript, commitment=commitment), clock()
        )
        reply = flatten(
            (yield rpc(
                transcript.coin.witness_id,
                "witness/sign",
                {"transcript": transcript.to_wire()},
            ))
        )
        if reply.get("status") == "double-spend":
            proof = DoubleSpendProof.from_wire(registry.strip_prefix(reply, "proof."))
            return {"status": "double-spend", "proof": proof.to_wire()}
        signed = SignedTranscript.from_wire(registry.strip_prefix(reply, "signed."))
        merchant.accept_signed_transcript(signed, clock())
        return {"status": "service", "amount": transcript.coin.denomination}

    return pay


def _simulated_payments(params, serial):
    system = EcashSystem(params=params, seed=77)
    dep = NetworkDeployment(system, cost_model=python2006_profile(), seed=77)
    dep.add_client("c")
    if serial:
        for merchant_id in system.merchant_ids:

            def relay(destination, method, payload, source=merchant_id):
                return dep.network.rpc(source, destination, method, payload)

            dep.network.node(merchant_id)._handlers["pay"] = _verify_then_call(
                system.merchant(merchant_id), dep.now, relay
            )
    receipts = []
    for _ in range(3):
        stored = dep.run(dep.withdrawal_process("c", system.standard_info(25, now=0)))
        target = other_merchant(system, stored.coin.witness_id)
        receipts.append(dep.run(dep.payment_process("c", stored, target)))
    return dep.network.trace.entries, receipts, dep.sim.now


def test_a_simulated_payment_is_message_for_message_what_it_was(params):
    trace, receipts, ended = _simulated_payments(params, serial=False)
    serial_trace, serial_receipts, serial_ended = _simulated_payments(params, serial=True)
    assert [entry.method for entry in trace if entry.kind == "request"][-3:] == [
        "witness/commit",
        "pay",
        "witness/sign",
    ]
    assert trace == serial_trace  # times, sizes, order
    assert receipts == serial_receipts
    assert ended == serial_ended


def test_a_simulated_forgery_is_not_sent_to_the_witness(params):
    """``cancel`` on the sim's lazy future: the request never leaves."""
    system = EcashSystem(params=params, seed=78)
    dep = NetworkDeployment(system, cost_model=python2006_profile(), seed=78)
    client = dep.add_client("c")
    stored = dep.run(dep.withdrawal_process("c", system.standard_info(25, now=0)))
    target = other_merchant(system, stored.coin.witness_id)
    transcript, commitment = _request(system, client, stored, target, now=dep.now())
    forged = PaymentTranscript(
        coin=transcript.coin,
        response=type(transcript.response)(
            r1=(transcript.response.r1 + 1) % system.params.group.q,
            r2=transcript.response.r2,
        ),
        merchant_id=transcript.merchant_id,
        timestamp=transcript.timestamp,
        salt=transcript.salt,
    )
    witness = system.witness_of(stored)
    before = _witness_state(witness)

    def attack():
        yield dep.network.rpc("c", target, "pay", _payload(forged, commitment))

    with pytest.raises(InvalidPaymentError, match="representation proof"):
        dep.run(attack())
    assert "witness/sign" not in [entry.method for entry in dep.network.trace.entries]
    assert _witness_state(witness) == before
