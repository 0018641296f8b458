"""Each coin, full coin and payment transcript carries its hash encoding.

``hash_encoding()`` is ``encode_for_hash(*hash_parts())``, computed once
per instance and spliced into every hash over the object. These tests
hold it to the flat tuples the protocol hashes — written out here, part
by part, independently of the splice — for objects built in process,
parsed by ``from_wire`` and restored from a recovered broker store, and
check that a copy with one field changed never inherits an encoding.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.coin import BareCoin, Coin
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_deposit, run_payment
from repro.core.transcripts import (
    CommitmentRequest,
    PaymentTranscript,
    SignedTranscript,
    payment_nonce,
)
from repro.crypto.hashing import encode_for_hash
from repro.crypto.serialize import decode, encode
from repro.store import Store

from tests.conftest import other_merchant


def flat_bare(bare: BareCoin) -> tuple:
    signature = bare.signature
    return (
        "bare-coin",
        signature.rho,
        signature.omega,
        signature.sigma,
        signature.delta,
        *bare.info.hash_parts(),
        bare.commitment_a,
        bare.commitment_b,
    )


def flat_coin(coin: Coin) -> tuple:
    entry = coin.witness_entry
    return (
        "coin",
        *flat_bare(coin.bare),
        "witness-entry",
        entry.version,
        "witness-range",
        entry.range.merchant_id,
        entry.range.low,
        entry.range.high,
        entry.signature.e,
        entry.signature.s,
    )


def flat_transcript(transcript: PaymentTranscript) -> tuple:
    return (
        "payment-transcript",
        *flat_coin(transcript.coin),
        transcript.response.r1,
        transcript.response.r2,
        transcript.merchant_id,
        transcript.timestamp,
        transcript.salt,
    )


def check_encodings(params, transcript: PaymentTranscript) -> None:
    """Every cached encoding is its object's flat tuple, encoded."""
    coin = transcript.coin
    for obj, flat in (
        (coin.bare, flat_bare(coin.bare)),
        (coin, flat_coin(coin)),
        (transcript, flat_transcript(transcript)),
    ):
        expected = encode_for_hash(*flat)
        assert encode_for_hash(*obj.hash_parts()) == expected
        assert obj.hash_encoding().data == expected
        assert obj.hash_encoding() is obj.hash_encoding()
    hashes = params.hashes
    assert coin.bare.digest(params) == hashes.h(*flat_bare(coin.bare)) % params.witness_hash_space
    assert transcript.challenge(params) == hashes.H0(
        *flat_coin(coin), transcript.merchant_id, transcript.timestamp
    )


@pytest.fixture()
def paid(system, funded_client):
    """A witness-signed transcript from an in-process payment."""
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    return merchant, signed


def test_objects_built_in_process(system, paid):
    _, signed = paid
    check_encodings(system.params, signed.transcript)
    assert signed.verify_witness_signature(
        system.params, system.witness(signed.transcript.coin.witness_id).public_key
    )


def test_objects_parsed_from_the_wire(system, paid):
    _, signed = paid
    parsed = PaymentTranscript.from_wire(decode(encode(signed.transcript.to_wire())))
    assert parsed == signed.transcript
    assert "_hash_encoding" not in vars(parsed)
    check_encodings(system.params, parsed)
    assert parsed.hash_encoding().data == signed.transcript.hash_encoding().data


def test_objects_restored_from_a_recovered_broker_store(
    system, funded_client, recover_broker, tmp_path
):
    store = Store(tmp_path / "state", backend="memory", shards=1)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    store.close()

    restored = recover_broker(tmp_path / "state")
    (record,) = restored._deposits.values()
    assert record.signed == signed
    assert "_hash_encoding" not in vars(record.signed.transcript)
    check_encodings(system.params, record.signed.transcript)


def test_a_changed_copy_gets_its_own_encoding(system, paid):
    """``dataclasses.replace`` builds a new instance: nothing cached on the
    original (filled first here) may leak into a copy that differs."""
    params = system.params
    _, signed = paid
    transcript = signed.transcript
    coin = transcript.coin
    bare = coin.bare
    check_encodings(params, transcript)

    other_bare = dataclasses.replace(bare, commitment_a=bare.commitment_b)
    assert other_bare.hash_encoding().data != bare.hash_encoding().data
    assert other_bare.digest(params) != bare.digest(params)
    assert other_bare.hash_encoding().data == encode_for_hash(*flat_bare(other_bare))

    other_coin = dataclasses.replace(coin, bare=other_bare)
    assert other_coin.hash_encoding().data != coin.hash_encoding().data
    assert other_coin.hash_encoding().data == encode_for_hash(*flat_coin(other_coin))
    assert other_coin.digest(params) != coin.digest(params)

    for change in ({"salt": transcript.salt + 1}, {"timestamp": transcript.timestamp + 1}):
        other = dataclasses.replace(transcript, **change)
        assert other.hash_encoding().data != transcript.hash_encoding().data
        assert params.hashes.h(other.hash_encoding()) != params.hashes.h(
            transcript.hash_encoding()
        )
        check_encodings(params, other)
    assert not SignedTranscript(
        dataclasses.replace(transcript, salt=transcript.salt + 1), signed.witness_signature
    ).verify_witness_signature(params, system.witness(coin.witness_id).public_key)


def test_salted_transcript_commitment_hashes_the_encoding_as_bytes(system, paid):
    """A second commitment on a spent coin commits to ``v = ("salted-
    transcript", salt, <transcript encoding>)`` with the encoding as one
    ``bytes`` value, not spliced into ``h(v)``."""
    params = system.params
    merchant, signed = paid
    transcript = signed.transcript
    coin = transcript.coin
    witness = system.witness(coin.witness_id)
    digest = coin.digest(params)
    salt = witness._spent[digest].transcript_salt

    request = CommitmentRequest(
        coin_hash=digest, nonce=payment_nonce(params, 99, merchant.merchant_id)
    )
    commitment = witness.request_commitment(request, now=20)
    value = witness.reveal_commitment_value(digest)
    assert value == ("salted-transcript", salt, encode_for_hash(*flat_transcript(transcript)))
    assert type(value[2]) is bytes
    assert commitment.v_hash == params.hashes.h(
        "salted-transcript", salt, encode_for_hash(*flat_transcript(transcript))
    )

