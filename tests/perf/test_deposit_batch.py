"""The broker's batched deposit (Algorithm 3) vs its per-item loop."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import perf
from repro.analysis.opcount import PAPER_TABLE1
from repro.core.broker import DepositOutcome, DepositResult
from repro.core.exceptions import DoubleDepositError, InvalidPaymentError
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import SignedTranscript
from repro.crypto.counters import OpCounter, counting
from repro.crypto.representation import RepresentationResponse

from tests.conftest import MERCHANTS

MERCHANT = "alice-books"
NOW = 5


def _fresh_system(params) -> EcashSystem:
    return EcashSystem(merchant_ids=MERCHANTS, params=params, seed=777)


def _paid_transcripts(system: EcashSystem, count: int) -> list[SignedTranscript]:
    """``count`` distinct coins spent at MERCHANT (never its own witness)."""
    client = system.new_client()
    out: list[SignedTranscript] = []
    while len(out) < count:
        stored = run_withdrawal(client, system.broker, system.standard_info(50, NOW))
        if stored.coin.witness_id == MERCHANT:
            continue
        out.append(
            run_payment(client, stored, system.merchant(MERCHANT), system.witness_of(stored), NOW)
        )
    return out


def _forge_bad_response(system: EcashSystem, signed: SignedTranscript) -> SignedTranscript:
    """A transcript whose witness signature is fine but whose proof is not.

    Models a faulty witness signing a transcript with a corrupted
    representation response — exactly the case the batched pipeline must
    pin on the right item.
    """
    q = system.params.group.q
    transcript = signed.transcript
    bad_transcript = replace(
        transcript,
        response=RepresentationResponse(
            r1=(transcript.response.r1 + 1) % q, r2=transcript.response.r2
        ),
    )
    witness_key = system.witness(transcript.coin.witness_id).keypair
    return SignedTranscript(
        transcript=bad_transcript,
        witness_signature=witness_key.sign(*bad_transcript.hash_parts()),
    )


def test_all_valid_batch_matches_per_item_loop(params):
    loop_system = _fresh_system(params)
    loop_results = [
        loop_system.broker.deposit(MERCHANT, signed, NOW)
        for signed in _paid_transcripts(loop_system, 4)
    ]
    batch_system = _fresh_system(params)
    batch_results = batch_system.broker.deposit_batch(
        MERCHANT, _paid_transcripts(batch_system, 4), NOW
    )
    assert batch_results == loop_results
    assert all(
        isinstance(r, DepositResult) and r.outcome is DepositOutcome.CREDITED
        for r in batch_results
    )
    assert (
        batch_system.broker.merchant_balance(MERCHANT)
        == loop_system.broker.merchant_balance(MERCHANT)
        == 200
    )


def test_bad_item_is_named_and_rest_settle(system):
    items = _paid_transcripts(system, 4)
    items[1] = _forge_bad_response(system, items[1])
    results = system.broker.deposit_batch(MERCHANT, items, NOW)
    assert isinstance(results[1], InvalidPaymentError)
    for index in (0, 2, 3):
        assert isinstance(results[index], DepositResult)
    assert system.broker.merchant_balance(MERCHANT) == 150


def test_in_batch_repeat_behaves_like_sequential_deposits(system):
    (signed,) = _paid_transcripts(system, 1)
    results = system.broker.deposit_batch(MERCHANT, [signed, signed], NOW)
    assert isinstance(results[0], DepositResult)
    assert isinstance(results[1], DoubleDepositError)
    assert system.broker.merchant_balance(MERCHANT) == 50


@pytest.mark.parametrize("warm", [True, False])
def test_logical_op_counts_match_per_item_deposits(params, warm):
    """Table 1 accounting per item is invariant under batching and caches:
    paying in this process leaves every memo warm, and ``perf.reset()``
    makes the broker recompute what one in its own process would."""
    loop_system = _fresh_system(params)
    loop_items = _paid_transcripts(loop_system, 3)
    batch_system = _fresh_system(params)
    batch_items = _paid_transcripts(batch_system, 3)
    if not warm:
        perf.reset()
    with counting(OpCounter()) as loop_counter:
        for signed in loop_items:
            loop_system.broker.deposit(MERCHANT, signed, NOW)
    if not warm:
        perf.reset()
    with counting(OpCounter()) as batch_counter:
        batch_system.broker.deposit_batch(MERCHANT, batch_items, NOW)
    assert batch_counter.snapshot() == loop_counter.snapshot()
    # ... which is the broker's deposit row of Table 1, once per item.
    exp, hashes, sig, ver = PAPER_TABLE1[("Deposit", "Broker")]
    assert batch_counter.snapshot() == (3 * exp, 3 * hashes, 3 * sig, 3 * ver)
