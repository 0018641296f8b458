"""A refused step leaves no trace, in memory or on disk.

The deposit half of the rule: ``_settle_deposit`` runs the step that can
refuse (the credit) before it writes a deposit record, a witness counter
or a fault entry, so a deposit refused for want of funds is answered
as new once the money is there. The oracle half: the autouse fixture
``journaled_parties_match_their_recovery`` compares each journaled
party with its store after every commit and abort; the last two tests
give it an aborted write and a key written twice in one operation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.broker import DepositOutcome
from repro.core.exceptions import InsufficientFundsError
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.store import Store
from tests.conftest import journal_divergence, other_merchant

NOW = 20


@pytest.fixture()
def store(tmp_path):
    store = Store(tmp_path / "state", backend="memory", shards=2)
    yield store
    store.close()


def _paid(system, client, stored, merchant_id, now=10):
    return run_payment(
        client, stored, system.merchant(merchant_id), system.witness_of(stored), now=now
    )


def test_a_deposit_the_float_cannot_pay_is_kept_nowhere_and_credited_once_funded(
    system, funded_client, store
):
    broker = system.broker
    attach_broker_store(broker, store)
    client, stored = funded_client
    merchant_id = other_merchant(system, stored.coin.witness_id)
    signed = _paid(system, client, stored, merchant_id)
    witness = broker.merchants[stored.coin.witness_id]
    system.ledger.burn(broker.account, system.ledger.balance(broker.account), memo="float out")

    with pytest.raises(InsufficientFundsError):
        broker.deposit(merchant_id, signed, NOW)
    assert journal_divergence(broker, store) is None
    assert broker._deposits == {}
    assert witness.coins_witnessed == 0

    run_withdrawal(system.new_client(), broker, system.standard_info(25, now=0))
    result = broker.deposit(merchant_id, signed, NOW)
    assert result.outcome is DepositOutcome.CREDITED
    assert broker.merchant_balance(merchant_id) == 25
    assert witness.coins_witnessed == 1
    assert journal_divergence(broker, store) is None


def test_a_second_deposit_the_escrow_cannot_pay_records_no_fault_until_funded(
    system, funded_client, store
):
    broker = system.broker
    attach_broker_store(broker, store)
    client, stored = funded_client
    witness_id = stored.coin.witness_id
    system.witness_of(stored).faulty = True
    first, second = [m for m in system.merchant_ids if m != witness_id][:2]
    signed_first = _paid(system, client, stored, first)
    client.wallet.add(stored)
    signed_second = _paid(system, client, stored, second, now=400)
    broker.deposit(first, signed_first, 500)
    escrow = f"deposit:{witness_id}"
    system.ledger.burn(escrow, system.ledger.balance(escrow), memo="escrow out")

    with pytest.raises(InsufficientFundsError):
        broker.deposit(second, signed_second, 600)
    assert journal_divergence(broker, store) is None
    assert broker.witness_fault_log == []
    assert broker.merchants[witness_id].incidents == 0

    system.ledger.mint(escrow, 25, memo="escrow topped up")
    result = broker.deposit(second, signed_second, 600)
    assert result.outcome is DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT
    assert len(broker.witness_fault_log) == 1
    assert broker.merchants[witness_id].incidents == 1
    assert journal_divergence(broker, store) is None


def test_an_aborted_operation_leaves_the_store_as_the_party_is(system, store):
    """A step that journaled and then failed: its write must not reach the
    backends, and the oracle must see it if it did."""
    broker = system.broker
    attach_broker_store(broker, store)
    account = broker.merchants[system.merchant_ids[0]]
    with pytest.raises(RuntimeError, match="after journaling"):
        with store.operation():
            broker.journal.record_merchant(
                dataclasses.replace(account, incidents=account.incidents + 1)
            )
            raise RuntimeError("the step fails after journaling")
    assert journal_divergence(broker, store) is None


def test_a_key_written_twice_in_one_operation_keeps_the_last_write(params, store):
    """Two deposits inside one journal scope each journal the witness's
    account: the store must hold the second count."""
    system = EcashSystem(
        merchant_ids=("alice-books", "bob-news"),
        params=params,
        seed=7,
        weights={"alice-books": 1.0},
    )
    broker = system.broker
    attach_broker_store(broker, store)
    client = system.new_client()
    signed = []
    for _ in range(2):
        stored = run_withdrawal(client, broker, system.standard_info(25, now=0))
        signed.append(_paid(system, client, stored, "bob-news"))
    with broker.journal.operation():
        for transcript in signed:
            broker.deposit("bob-news", transcript, NOW)
    assert broker.merchants["alice-books"].coins_witnessed == 2
    assert journal_divergence(broker, store) is None
