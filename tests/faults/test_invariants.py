"""Tests for the safety-invariant checker (and broker crash recovery)."""

from dataclasses import replace

import pytest

from repro.core.exceptions import DoubleDepositError, DoubleSpendError
from repro.core.protocols import run_deposit, run_payment, run_withdrawal
from repro.core.transcripts import SignedTranscript
from repro.crypto.schnorr import SchnorrSignature
from repro.faults.invariants import InvariantChecker
from tests.conftest import save_broker_state


def other_shops(system, stored):
    return [m for m in system.merchant_ids if m != stored.coin.witness_id]


def test_honest_lifecycle_passes_all_invariants(system):
    checker = InvariantChecker(system)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    shop = other_shops(system, stored)[0]
    run_payment(client, stored, system.merchant(shop), system.witness_of(stored), now=10)
    run_deposit(system.merchant(shop), system.broker, now=100)
    results = checker.check_all()
    assert [result.name for result in results] == [
        "ledger-conserved",
        "single-credit-per-coin",
        "witness-faults-slashed",
    ]
    assert all(result.ok for result in results)


def test_double_spend_proof_invariant(system):
    checker = InvariantChecker(system)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    shops = other_shops(system, stored)
    witness = system.witness_of(stored)
    run_payment(client, stored, system.merchant(shops[0]), witness, now=10)
    client.wallet.add(stored)
    with pytest.raises(DoubleSpendError) as refusal:
        run_payment(client, stored, system.merchant(shops[1]), witness, now=500)
    good = checker.double_spend_proofs_verify([(refusal.value.proof, stored.coin)])
    assert good.ok
    # The same proof against a different coin must not verify.
    decoy = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    bad = checker.double_spend_proofs_verify([(refusal.value.proof, decoy.coin)])
    assert not bad.ok


def test_equivocating_witness_is_slashed_and_checker_verifies_it(system):
    checker = InvariantChecker(system)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    system.witness_of(stored).faulty = True
    shops = other_shops(system, stored)
    run_payment(client, stored, system.merchant(shops[0]), system.witness_of(stored), now=10)
    client.wallet.add(stored)
    run_payment(client, stored, system.merchant(shops[1]), system.witness_of(stored), now=500)
    run_deposit(system.merchant(shops[0]), system.broker, now=600)
    run_deposit(system.merchant(shops[1]), system.broker, now=601)
    assert len(system.broker.witness_fault_log) == 1
    results = checker.check_all()
    assert all(result.ok for result in results), [r.render() for r in results]
    slash = checker.witness_faults_slashed()
    assert "faults=1" in slash.detail


def test_tampered_fault_evidence_is_rejected(system):
    checker = InvariantChecker(system)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    shop = other_shops(system, stored)[0]
    signed = run_payment(
        client, stored, system.merchant(shop), system.witness_of(stored), now=10
    )
    # Fabricate a fault-log entry whose transcripts are NOT from two
    # distinct merchants: the checker must flag it.
    system.broker.witness_fault_log.append((stored.coin.witness_id, signed, signed))
    result = checker.witness_faults_slashed()
    assert not result.ok
    assert "(no-violation: the two submissions are the same transcript)" in result.detail


def test_fault_evidence_with_a_forged_signature_is_rejected(system):
    """Two merchants, one coin, but the second signature is not the
    witness's: the arbiter finds no proof, so the checker flags it."""
    checker = InvariantChecker(system)
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    shops = other_shops(system, stored)
    signed = run_payment(
        client, stored, system.merchant(shops[0]), system.witness_of(stored), now=10
    )
    forged = SignedTranscript(
        transcript=replace(signed.transcript, merchant_id=shops[1], timestamp=500),
        witness_signature=SchnorrSignature(e=1, s=1),
    )
    system.broker.witness_fault_log.append((stored.coin.witness_id, signed, forged))
    result = checker.witness_faults_slashed()
    assert not result.ok
    assert "(proof-invalid: a submitted witness signature does not verify)" in result.detail


def test_invariant_result_render_is_fixed_format(system):
    checker = InvariantChecker(system)
    line = checker.ledger_conserved().render()
    assert line.startswith("PASS ledger-conserved: minted=")


def test_broker_crash_restart_still_refuses_double_deposit(system, recover_broker, tmp_path):
    """Satellite: a coin deposited before a broker crash is still rejected
    as a double-deposit after the broker restarts from its saved state."""
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    shop = other_shops(system, stored)[0]
    run_payment(client, stored, system.merchant(shop), system.witness_of(stored), now=10)
    signed = system.merchant(shop).pending_deposits()[0]
    run_deposit(system.merchant(shop), system.broker, now=100)

    save_broker_state(system.broker, tmp_path / "broker-state")
    restarted = recover_broker(tmp_path / "broker-state")

    assert restarted.ledger.conserved()
    with pytest.raises(DoubleDepositError):
        restarted.deposit(shop, signed, 200)
    # And the restarted broker still serves honest traffic.
    fresh = run_withdrawal(client, restarted, system.standard_info(25, now=200))
    assert fresh.coin.denomination == 25
