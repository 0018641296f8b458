"""Tests for the deposit protocol (Algorithm 3), including case 2-b."""

import dataclasses

import pytest

from repro.core.broker import DepositOutcome
from repro.core.coin import Coin
from repro.core.exceptions import (
    DoubleDepositError,
    ExpiredCoinError,
    InvalidCoinError,
    InvalidPaymentError,
    UnknownMerchantError,
)
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_deposit, run_payment, run_withdrawal
from repro.store import Store
from tests.conftest import other_merchant


@pytest.fixture()
def paid_merchant(system, funded_client):
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    return merchant, signed, stored


def test_deposit_credits_merchant(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    results = run_deposit(merchant, system.broker, now=20)
    assert len(results) == 1
    assert results[0].outcome is DepositOutcome.CREDITED
    assert system.broker.merchant_balance(merchant.merchant_id) == stored.denomination
    assert system.ledger.conserved()


def test_double_deposit_same_merchant_refused(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    system.broker.deposit(merchant.merchant_id, signed, now=20)
    with pytest.raises(DoubleDepositError):
        system.broker.deposit(merchant.merchant_id, signed, now=30)
    assert system.broker.merchant_balance(merchant.merchant_id) == stored.denomination


def test_case_2b_witness_charged(system, funded_client):
    """Faulty witness signs two transcripts; the second merchant is still
    paid — from the witness's security deposit."""
    client, stored = funded_client
    witness = system.witness_of(stored)
    witness.faulty = True
    witness_id = stored.coin.witness_id
    candidates = [m for m in system.merchant_ids if m != witness_id]
    merchant_a, merchant_b = system.merchant(candidates[0]), system.merchant(candidates[1])
    run_payment(client, stored, merchant_a, witness, now=10)
    client.wallet.add(stored)
    run_payment(client, stored, merchant_b, witness, now=400)

    deposit_before = system.broker.security_deposit_balance(witness_id)
    run_deposit(merchant_a, system.broker, now=500)
    results = run_deposit(merchant_b, system.broker, now=600)

    assert results[0].outcome is DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT
    assert results[0].witness_fault_proof is not None
    assert system.broker.merchant_balance(merchant_a.merchant_id) == 25
    assert system.broker.merchant_balance(merchant_b.merchant_id) == 25
    assert (
        system.broker.security_deposit_balance(witness_id) == deposit_before - 25
    )
    assert system.broker.merchants[witness_id].incidents == 1
    assert len(system.broker.witness_fault_log) == 1
    assert system.ledger.conserved()


@pytest.fixture()
def double_signed(system, funded_client):
    """One coin a faulty witness countersigned for three merchants:
    ``(witness_id, [signed_a, signed_b, signed_c])``."""
    client, stored = funded_client
    witness = system.witness_of(stored)
    witness.faulty = True
    witness_id = stored.coin.witness_id
    signed = []
    for index, merchant_id in enumerate(m for m in system.merchant_ids if m != witness_id):
        if index:
            client.wallet.add(stored)
        signed.append(
            run_payment(client, stored, system.merchant(merchant_id), witness, now=10 + 400 * index)
        )
    return witness_id, signed


def _escrow_audit(system, witness_id, escrow_before, faults):
    broker = system.broker
    assert broker.security_deposit_balance(witness_id) == escrow_before - 25 * faults
    assert len(broker.witness_fault_log) == faults
    assert broker.merchants[witness_id].incidents == faults
    assert system.ledger.conserved()


def test_repeated_second_deposit_charges_the_witness_once(system, double_signed):
    """Alg. 3 case 2-b charges the witness once per merchant it double-signed
    for: a retry of the same signed transcript is a double deposit."""
    witness_id, (signed_a, signed_b, _) = double_signed
    broker = system.broker
    escrow_before = broker.security_deposit_balance(witness_id)
    broker.deposit(signed_a.transcript.merchant_id, signed_a, now=1300)
    merchant_b = signed_b.transcript.merchant_id
    first = broker.deposit(merchant_b, signed_b, now=1300)
    assert first.outcome is DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT
    for _ in range(2):
        with pytest.raises(DoubleDepositError):
            broker.deposit(merchant_b, signed_b, now=1300)
    assert broker.merchant_balance(merchant_b) == 25
    _escrow_audit(system, witness_id, escrow_before, faults=1)


def test_repeated_second_deposit_inside_one_batch(system, double_signed, funded_client):
    witness_id, (signed_a, signed_b, _) = double_signed
    broker = system.broker
    escrow_before = broker.security_deposit_balance(witness_id)
    broker.deposit(signed_a.transcript.merchant_id, signed_a, now=1300)
    merchant_b = signed_b.transcript.merchant_id
    client, _ = funded_client
    fresh = run_withdrawal(client, broker, system.standard_info(25, now=0))
    while fresh.coin.witness_id == merchant_b:
        fresh = run_withdrawal(client, broker, system.standard_info(25, now=0))
    other = run_payment(client, fresh, system.merchant(merchant_b), system.witness_of(fresh), now=1200)
    results = broker.deposit_batch(merchant_b, [signed_b, signed_b, signed_b, other], now=1300)
    assert results[0].outcome is DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT
    assert isinstance(results[1], DoubleDepositError)
    assert isinstance(results[2], DoubleDepositError)
    assert results[3].outcome is DepositOutcome.CREDITED
    assert broker.merchant_balance(merchant_b) == 50
    _escrow_audit(system, witness_id, escrow_before, faults=1)


def test_second_deposit_stays_refused_after_store_recovery(system, double_signed, tmp_path):
    """The refusal is rebuilt from the journalled fault entry."""
    witness_id, (signed_a, signed_b, _) = double_signed
    broker = system.broker
    store = Store(tmp_path / "state", backend="sqlite", shards=2)
    attach_broker_store(broker, store)
    escrow_before = broker.security_deposit_balance(witness_id)
    broker.deposit(signed_a.transcript.merchant_id, signed_a, now=1300)
    merchant_b = signed_b.transcript.merchant_id
    broker.deposit(merchant_b, signed_b, now=1300)
    store.close()

    reopened = Store(tmp_path / "state", backend="sqlite", shards=2)
    attach_broker_store(broker, reopened)
    with pytest.raises(DoubleDepositError):
        broker.deposit(merchant_b, signed_b, now=1400)
    assert broker.merchant_balance(merchant_b) == 25
    _escrow_audit(system, witness_id, escrow_before, faults=1)
    reopened.close()


def test_third_merchant_is_still_paid_from_escrow_once(system, double_signed):
    witness_id, signed = double_signed
    broker = system.broker
    escrow_before = broker.security_deposit_balance(witness_id)
    outcomes = [
        broker.deposit(item.transcript.merchant_id, item, now=1300).outcome for item in signed
    ]
    assert outcomes == [
        DepositOutcome.CREDITED,
        DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT,
        DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT,
    ]
    for item in signed:
        with pytest.raises(DoubleDepositError):
            broker.deposit(item.transcript.merchant_id, item, now=1300)
        assert broker.merchant_balance(item.transcript.merchant_id) == 25
    _escrow_audit(system, witness_id, escrow_before, faults=2)


def test_unknown_depositor_rejected(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    with pytest.raises(UnknownMerchantError):
        system.broker.deposit("nobody", signed, now=20)


def test_transcript_merchant_mismatch_rejected(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    thief = other_merchant(system, merchant.merchant_id)
    with pytest.raises(InvalidPaymentError):
        system.broker.deposit(thief, signed, now=20)


def test_soft_expired_coin_uncashable(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    with pytest.raises(ExpiredCoinError):
        system.broker.deposit(
            merchant.merchant_id, signed, now=stored.coin.info.soft_expiry + 1
        )


def test_forged_witness_signature_rejected(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    from repro.core.transcripts import SignedTranscript
    from repro.crypto.schnorr import SchnorrSignature

    forged = SignedTranscript(
        transcript=signed.transcript,
        witness_signature=SchnorrSignature(
            e=(signed.witness_signature.e + 1) % system.params.group.q,
            s=signed.witness_signature.s,
        ),
    )
    with pytest.raises(InvalidPaymentError):
        system.broker.deposit(merchant.merchant_id, forged, now=20)


def test_a_reencoded_coin_is_not_paid_from_the_float(system, paid_merchant, rng):
    """A spent, deposited coin spelled ``rho + q`` and countersigned by a
    witness that skips its own coin check is not a fresh first deposit."""
    from repro.core.transcripts import PaymentTranscript, SignedTranscript
    from repro.crypto.representation import respond

    first_merchant, _, stored = paid_merchant
    run_deposit(first_merchant, system.broker, now=20)
    params, broker = system.params, system.broker
    # Someone else's unspent coin: the float a second "first" deposit would drain.
    run_withdrawal(system.new_client(), broker, system.standard_info(25, now=0))

    signature = stored.coin.bare.signature
    bare = dataclasses.replace(
        stored.coin.bare,
        signature=dataclasses.replace(signature, rho=signature.rho + params.group.q),
    )
    assert bare not in broker._deposits  # a different key, the same coin
    entry = broker.tables[bare.info.list_version].witness_for(bare.digest(params))
    coin = Coin(bare=bare, witness_entry=entry)
    depositor = other_merchant(system, entry.merchant_id)
    challenge = params.hashes.H0(*coin.hash_parts(), depositor, 30)
    transcript = PaymentTranscript(
        coin=coin,
        response=respond(stored.secrets, challenge, params.group.q),
        merchant_id=depositor,
        timestamp=30,
        salt=7,
    )
    # ``faulty=True`` still runs ensure_valid_signature; this witness signs blind.
    countersigned = SignedTranscript(
        transcript=transcript,
        witness_signature=system.witness(entry.merchant_id).keypair.sign(
            *transcript.hash_parts(), rng=rng
        ),
    )
    paid_before = broker.merchant_balance(depositor)
    with pytest.raises(InvalidCoinError):
        broker.deposit(depositor, countersigned, now=40)
    assert broker.merchant_balance(depositor) == paid_before
    assert len(broker._deposits) == 1
    assert system.ledger.conserved()


def test_purge_expired_records(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    system.broker.deposit(merchant.merchant_id, signed, now=20)
    assert system.broker.purge_expired_records(now=30) == 0
    removed = system.broker.purge_expired_records(now=stored.coin.info.hard_expiry + 1)
    assert removed == 1


def test_witness_performance_feeds_next_table(system, paid_merchant):
    merchant, signed, stored = paid_merchant
    system.broker.deposit(merchant.merchant_id, signed, now=20)
    performance = system.broker.witness_performance()
    witness_id = stored.coin.witness_id
    assert performance[witness_id] > performance[merchant.merchant_id] or (
        witness_id == merchant.merchant_id
    )
    table = system.broker.publish_witness_table(performance)
    assert table.version == 2
    assert table.selection_probability(witness_id) > 1.0 / (2 * len(system.merchant_ids))
