"""Tests for the payment protocol (Algorithm 2), honest and adversarial."""

import pytest

from repro.core.client import PendingPayment
from repro.core.exceptions import (
    CommitmentError,
    CommitmentOutstandingError,
    ExpiredCoinError,
    InvalidPaymentError,
    WrongWitnessError,
)
from repro.core.merchant import PaymentRequest
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.transcripts import (
    CommitmentRequest,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
)
from repro.crypto.serialize import flatten
from repro.net.registry import strip_prefix
from tests.conftest import other_merchant


@pytest.fixture()
def payment_parties(system, funded_client):
    client, stored = funded_client
    merchant_id = other_merchant(system, stored.coin.witness_id)
    return client, stored, system.merchant(merchant_id), system.witness_of(stored)


def test_happy_path(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    signed = run_payment(client, stored, merchant, witness, now=10)
    assert signed.verify_witness_signature(system.params, witness.public_key)
    assert stored not in client.wallet.coins
    assert merchant.pending_deposits() == [signed]
    assert witness.has_seen(stored.coin.digest(system.params))


def test_pending_deposits_keep_acceptance_order_as_deposits_are_marked(system):
    client = system.new_client()
    signed = []
    while len(signed) < 4:
        stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
        if stored.coin.witness_id == "alice-books":
            client.wallet.remove(stored)
            continue
        signed.append(
            run_payment(
                client, stored, system.merchant("alice-books"), system.witness_of(stored), 10
            )
        )
    merchant = system.merchant("alice-books")
    assert merchant.pending_deposits() == signed
    # An equal copy (a transcript that came back over the wire) counts.
    copy = SignedTranscript.from_wire(strip_prefix(flatten(signed[2].to_wire()), ""))
    assert copy is not signed[2]
    merchant.mark_deposited(copy)
    merchant.mark_deposited(signed[0])
    assert merchant.pending_deposits() == [signed[1], signed[3]]
    # Deposited transcripts are dropped; their coins are still refused.
    assert merchant._seen_bare_coins == {s.transcript.coin.bare for s in signed}


def test_payment_at_witness_itself(system, funded_client):
    """A coin can be spent AT its witness merchant too."""
    client, stored = funded_client
    witness_id = stored.coin.witness_id
    signed = run_payment(
        client, stored, system.merchant(witness_id), system.witness(witness_id), now=10
    )
    assert signed.transcript.merchant_id == witness_id


def test_expired_coin_refused_by_client(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    with pytest.raises(ExpiredCoinError):
        client.prepare_commitment_request(
            stored, merchant.merchant_id, now=stored.coin.info.soft_expiry + 1
        )


def test_expired_coin_refused_by_witness(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    late = stored.coin.info.soft_expiry + 1
    # Reissue commitment far in the future so only the coin expiry fails.
    with pytest.raises(ExpiredCoinError):
        witness.sign_transcript(transcript, late)


def test_wrong_witness_refuses(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    impostor_id = next(
        m for m in system.merchant_ids
        if m not in (stored.coin.witness_id, merchant.merchant_id)
    )
    impostor = system.witness(impostor_id)
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = impostor.request_commitment(request, now)
    # The client itself catches the wrong witness id on the commitment.
    with pytest.raises(CommitmentError):
        client.build_payment(pending, commitment, impostor.public_key, now)


def test_wrong_witness_sign_refused(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    impostor_id = next(
        m for m in system.merchant_ids
        if m not in (stored.coin.witness_id, merchant.merchant_id)
    )
    impostor = system.witness(impostor_id)
    impostor.request_commitment(request, now)  # has a commitment, still not the witness
    with pytest.raises(WrongWitnessError):
        impostor.sign_transcript(transcript, now)


def test_commitment_outstanding_blocks_second_nonce(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request_a, _ = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    witness.request_commitment(request_a, now)
    request_b, _ = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    assert request_a.nonce != request_b.nonce  # fresh salt
    with pytest.raises(CommitmentOutstandingError):
        witness.request_commitment(request_b, now)


def test_same_commitment_reissued_idempotently(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, _ = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    first = witness.request_commitment(request, now)
    again = witness.request_commitment(request, now)
    assert first == again


def test_commitment_expires_and_reopens(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    request_a, _ = client.prepare_commitment_request(stored, merchant.merchant_id, 10)
    first = witness.request_commitment(request_a, 10)
    later = first.expires_at + 1
    request_b, _ = client.prepare_commitment_request(stored, merchant.merchant_id, later)
    second = witness.request_commitment(request_b, later)
    assert second.nonce == request_b.nonce


def test_expired_commitment_rejected_by_client(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    with pytest.raises(CommitmentError):
        client.build_payment(pending, commitment, witness.public_key, commitment.expires_at)


def test_no_commitment_no_signature(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    witness.expire_commitments(commitment.expires_at + 1)
    with pytest.raises(CommitmentError):
        witness.sign_transcript(transcript, now)


def test_nonce_binds_merchant(system, payment_parties):
    """A transcript naming a different merchant than the nonce is refused."""
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    hijacked = PaymentTranscript(
        coin=transcript.coin,
        response=transcript.response,
        merchant_id=other_merchant(system, merchant.merchant_id),
        timestamp=transcript.timestamp,
        salt=transcript.salt,
    )
    with pytest.raises(CommitmentError):
        witness.sign_transcript(hijacked, now)


def test_merchant_rejects_transcript_for_other_merchant(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    other = system.merchant(other_merchant(system, merchant.merchant_id))
    with pytest.raises(InvalidPaymentError):
        other.verify_payment_request(
            PaymentRequest(transcript=transcript, commitment=commitment), now
        )


def test_merchant_rejects_bad_nizk(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    from repro.crypto.representation import RepresentationResponse

    forged = PaymentTranscript(
        coin=transcript.coin,
        response=RepresentationResponse(
            r1=(transcript.response.r1 + 1) % system.params.group.q,
            r2=transcript.response.r2,
        ),
        merchant_id=transcript.merchant_id,
        timestamp=transcript.timestamp,
        salt=transcript.salt,
    )
    with pytest.raises(InvalidPaymentError):
        merchant.verify_payment_request(
            PaymentRequest(transcript=forged, commitment=commitment), now
        )


def test_forward_gate_costs_nothing_and_decides_nothing(system, payment_parties):
    """``may_forward_early`` is comparisons only, and passing it is not a
    verdict: a forged proof passes the gate and still fails verification."""
    from repro.crypto.counters import OpCounter
    from repro.crypto.representation import RepresentationResponse

    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    honest = PaymentRequest(transcript=transcript, commitment=commitment)
    forged = PaymentRequest(
        transcript=PaymentTranscript(
            coin=transcript.coin,
            response=RepresentationResponse(
                r1=(transcript.response.r1 + 1) % system.params.group.q,
                r2=transcript.response.r2,
            ),
            merchant_id=transcript.merchant_id,
            timestamp=transcript.timestamp,
            salt=transcript.salt,
        ),
        commitment=commitment,
    )
    with OpCounter() as ops:
        assert merchant.may_forward_early(honest, now)
        assert merchant.may_forward_early(forged, now)
        # The slow payer and the expired coin are the gate's to stop.
        assert not merchant.may_forward_early(honest, commitment.expires_at)
        assert not merchant.may_forward_early(honest, stored.coin.info.soft_expiry)
    assert ops.snapshot() == (0, 0, 0, 0)
    with pytest.raises(InvalidPaymentError):
        merchant.verify_payment_request(forged, now)
    merchant.verify_payment_request(honest, now)


def test_transcript_replay_at_other_time_fails(system, payment_parties):
    """The challenge binds date/time: shifting the timestamp breaks the proof."""
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    shifted = PaymentTranscript(
        coin=transcript.coin,
        response=transcript.response,
        merchant_id=transcript.merchant_id,
        timestamp=now + 1,
        salt=transcript.salt,
    )
    with pytest.raises(InvalidPaymentError):
        merchant.verify_payment_request(
            PaymentRequest(transcript=shifted, commitment=commitment), now
        )


def test_forged_commitment_rejected(system, payment_parties):
    client, stored, merchant, witness = payment_parties
    now = 10
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    forged = WitnessCommitment(
        witness_id=commitment.witness_id,
        coin_hash=commitment.coin_hash,
        nonce=commitment.nonce,
        v_hash=commitment.v_hash,
        expires_at=commitment.expires_at + 1000,  # extend lifetime
        signature=commitment.signature,
    )
    with pytest.raises(CommitmentError):
        client.build_payment(pending, forged, witness.public_key, now)


def test_merchant_refuses_second_payment_with_same_coin(system, payment_parties):
    """Even a colluding witness cannot make one merchant accept twice."""
    client, stored, merchant, witness = payment_parties
    witness.faulty = True
    run_payment(client, stored, merchant, witness, now=10)
    client.wallet.add(stored)
    now = 400
    request, pending = client.prepare_commitment_request(stored, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = client.build_payment(pending, commitment, witness.public_key, now)
    with pytest.raises(InvalidPaymentError):
        merchant.verify_payment_request(
            PaymentRequest(transcript=transcript, commitment=commitment), now
        )


def test_stolen_coin_without_secrets_unusable(system, payment_parties):
    """A thief holding the coin (but not x1,x2,y1,y2) cannot build a valid payment."""
    client, stored, merchant, witness = payment_parties
    from repro.core.client import StoredCoin
    from repro.crypto.representation import RepresentationPair

    thief = system.new_client()
    guessed = RepresentationPair.generate(system.params.group, None)
    stolen = StoredCoin(coin=stored.coin, secrets=guessed)
    now = 10
    request, pending = thief.prepare_commitment_request(stolen, merchant.merchant_id, now)
    commitment = witness.request_commitment(request, now)
    transcript = thief.build_payment(pending, commitment, witness.public_key, now)
    with pytest.raises(InvalidPaymentError):
        merchant.verify_payment_request(
            PaymentRequest(transcript=transcript, commitment=commitment), now
        )
