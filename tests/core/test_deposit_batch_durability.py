"""``Broker.deposit_batch`` as a durability unit: one commit per batch.

A batch's settlements share one journal scope — one fsync per touched
shard and one commit marker — so these tests pin the three things that
follow from it: a crash before the marker loses the whole batch and
nothing else, a rejected item costs the others nothing, and the fsync
bill no longer grows with the batch. The other side of the marker is
here too: a batch that committed but whose reply was lost is retried
without a second credit and without staying pending for ever, and a
batch whose commit fsync failed is never answered from memory.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.broker import DepositOutcome, DepositResult
from repro.core.exceptions import (
    DoubleDepositError,
    InvalidPaymentError,
    ServiceUnavailableError,
)
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import SignedTranscript
from repro.crypto.serialize import pack_batch
from repro.net import registry
from repro.store import Store, StoreIOError, shard_index
from repro.store import wal as wal_module

WITNESS = "alice-books"
MERCHANT = "bob-news"
NOW = 5
DENOMINATION = 50
BATCH = registry.DEPOSIT_BATCH_SIZE
SHARDS = 4


class PowerLoss(Exception):
    """Simulated crash between the record fsyncs and the commit marker."""


def _fresh_system(params) -> EcashSystem:
    # Every coin lands on WITNESS, so MERCHANT can accept all of them.
    return EcashSystem(
        merchant_ids=(WITNESS, MERCHANT), params=params, seed=4242, weights={WITNESS: 1.0}
    )


def _paid_transcripts(system: EcashSystem, count: int) -> list[SignedTranscript]:
    client = system.new_client()
    out = []
    for _ in range(count):
        stored = run_withdrawal(
            client, system.broker, system.standard_info(DENOMINATION, NOW)
        )
        out.append(
            run_payment(
                client, stored, system.merchant(MERCHANT), system.witness(WITNESS), NOW
            )
        )
    return out


def _open_store(tmp_path, backend: str) -> Store:
    return Store(tmp_path / "state", backend=backend, shards=SHARDS)


def _wal_records(store: Store) -> int:
    return sum(shard.wal.appended_records for shard in store.shards)


def _shape(results: list) -> list:
    return [
        (item.outcome, item.amount)
        if isinstance(item, DepositResult)
        else (type(item), str(item))
        for item in results
    ]


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_batch_without_its_marker_is_discarded_whole_and_safe_to_retry(
    params, tmp_path, backend
):
    system = _fresh_system(params)
    store = _open_store(tmp_path, backend)
    attach_broker_store(system.broker, store)
    items = _paid_transcripts(system, BATCH)
    before = store.dump()
    records_before = _wal_records(store)

    def crash_before_marker(*payloads):
        raise PowerLoss()

    # Shard 0 holds the ledger, so the marker: its write never happens,
    # after the other shards have fsynced their share of the batch.
    store.shards[0].wal.append = crash_before_marker
    with pytest.raises(PowerLoss):
        system.broker.deposit_batch(MERCHANT, items, NOW)
    batch_records = _wal_records(store) - records_before
    # The deposit records routed off shard 0 reached their WALs.
    off_marker = sum(
        shard_index(f"{signed.transcript.coin.bare.digest(params):x}", SHARDS) != 0
        for signed in items
    )
    assert batch_records == off_marker > 0
    store.close()  # the orphaned records stay; still no marker

    reopened = _open_store(tmp_path, backend)
    stats = attach_broker_store(system.broker, reopened)
    assert stats.discarded_records == batch_records
    assert reopened.dump() == before  # ledger and deposits space untouched
    assert system.broker.merchant_balance(MERCHANT) == 0

    # No reply was sent, so the storefront still holds every transcript;
    # its retry is an ordinary first deposit of each coin.
    retried = system.broker.deposit_batch(MERCHANT, items, NOW)
    assert _shape(retried) == [(DepositOutcome.CREDITED, DENOMINATION)] * BATCH
    assert system.broker.merchant_balance(MERCHANT) == BATCH * DENOMINATION
    assert system.ledger.conserved()
    again = system.broker.deposit_batch(MERCHANT, items, NOW)
    assert all(isinstance(item, DoubleDepositError) for item in again)
    assert system.broker.merchant_balance(MERCHANT) == BATCH * DENOMINATION
    assert len(reopened.dump()["deposits"]) == BATCH
    reopened.close()


def _mixed_batch(system: EcashSystem) -> list[SignedTranscript]:
    """Good items around a forged witness signature, an in-batch repeat
    and a coin this merchant deposited earlier."""
    good = _paid_transcripts(system, 5)
    system.broker.deposit(MERCHANT, good[4], NOW)
    forged = SignedTranscript(
        transcript=good[1].transcript, witness_signature=good[0].witness_signature
    )
    return [good[0], forged, good[2], good[0], good[4], good[3]]


def test_mixed_batch_matches_sequential_deposits_item_for_item(params, recover_broker, tmp_path):
    sequential_system = _fresh_system(params)
    sequential = []
    for signed in _mixed_batch(sequential_system):
        try:
            sequential.append(sequential_system.broker.deposit(MERCHANT, signed, NOW))
        except (InvalidPaymentError, DoubleDepositError) as error:
            sequential.append(error)

    system = _fresh_system(params)
    store = _open_store(tmp_path, "sqlite")
    attach_broker_store(system.broker, store)
    batched = system.broker.deposit_batch(MERCHANT, _mixed_batch(system), NOW)

    assert _shape(batched) == _shape(sequential)
    assert [type(item) for item in batched] == [
        DepositResult,
        InvalidPaymentError,
        DepositResult,
        DoubleDepositError,
        DoubleDepositError,
        DepositResult,
    ]
    store.close()

    # The good items are durable: the three from the batch plus the
    # earlier single deposit.
    reopened = _open_store(tmp_path, "sqlite")
    restored = recover_broker(reopened)
    assert len(restored._deposits) == 4
    assert restored.merchant_balance(MERCHANT) == 4 * DENOMINATION
    assert restored.merchant_balance(MERCHANT) == sequential_system.broker.merchant_balance(
        MERCHANT
    )
    assert restored.ledger.conserved()
    reopened.close()


def test_one_deposit_batch_rpc_costs_at_most_one_fsync_per_shard_and_a_marker(
    params, tmp_path
):
    system = _fresh_system(params)
    store = _open_store(tmp_path, "sqlite")
    attach_broker_store(system.broker, store)
    items = _paid_transcripts(system, BATCH)
    handler = registry.broker_dispatch(system.broker, lambda: NOW)["deposit/batch"]

    def fsyncs() -> int:
        return sum(shard.wal.fsync_count for shard in store.shards)

    before = fsyncs()
    reply = handler(
        {
            "merchant_id": MERCHANT,
            "batch": pack_batch("t", [signed.to_wire() for signed in items]),
        }
    )
    assert fsyncs() - before <= SHARDS + 1
    assert [reply[f"r{index}"]["outcome"] for index in range(BATCH)] == ["credited"] * BATCH
    # Everything the reply acknowledges is already behind a commit marker.
    assert store._active_txn is None  # no scope left open
    assert all(shard.wal._pending == 0 for shard in store.shards)
    store.close()


def test_a_retry_after_a_lost_reply_is_idempotent(params, tmp_path):
    """The broker's commit marker is durable, the reply never arrives:
    the storefront's flow fails whole, and its retry finds every coin
    refused as a double deposit — this merchant's own earlier credit."""
    system = _fresh_system(params)
    store = _open_store(tmp_path, "memory")
    attach_broker_store(system.broker, store)
    items = _paid_transcripts(system, 3)
    merchant = system.merchant(MERCHANT)
    handler = registry.broker_dispatch(system.broker, lambda: NOW)["deposit/batch"]

    flow = registry.batch_deposit_flow(merchant, MERCHANT, "broker")
    call = next(flow)
    handler(call.payload)  # settled and committed; the reply is dropped
    assert store._active_txn is None  # no scope left open
    with pytest.raises(ServiceUnavailableError):
        flow.throw(ServiceUnavailableError("broker: connection lost"))
    assert merchant.pending_deposits() == items
    assert system.broker.merchant_balance(MERCHANT) == 3 * DENOMINATION
    history = list(system.ledger.history)

    def drain() -> list:
        flow = registry.batch_deposit_flow(merchant, MERCHANT, "broker")
        try:
            call = next(flow)
            while True:
                call = flow.send(handler(call.payload))
        except StopIteration as done:
            return done.value

    assert drain() == [{"outcome": registry.ALREADY_CREDITED, "amount": 0}] * 3
    assert merchant.pending_deposits() == []
    # Credited once: the retry moved nothing, and the refusal still stands.
    assert system.ledger.history == history
    assert system.broker.merchant_balance(MERCHANT) == 3 * DENOMINATION
    assert all(
        isinstance(item, DoubleDepositError)
        for item in system.broker.deposit_batch(MERCHANT, items, NOW)
    )
    assert drain() == []
    store.close()


def test_a_failed_commit_fsync_stops_the_broker_and_the_disk_decides_the_retry(
    params, tmp_path, monkeypatch, recover_broker
):
    """The batch's commit fsync fails with EIO, after the broker settled it
    in memory. That life must answer nothing more from its books: the
    storefront's retry gets the store's failure, not a DoubleDepositError
    it would book as already credited. The next life recovers what the
    disk holds (the WAL up to its last fsync that returned) and credits
    the retry once."""
    system = _fresh_system(params)
    store = Store(tmp_path / "state", backend="memory", shards=1)
    attach_broker_store(system.broker, store)
    items = _paid_transcripts(system, 3)
    merchant = system.merchant(MERCHANT)
    wal_path = store.shards[0].wal.path
    synced = [wal_path.stat().st_size]
    disk = {"eio": True}
    real_fsync = os.fsync

    def fsync(fd):
        if disk["eio"]:
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)
        synced.append(os.fstat(fd).st_size)

    def drain(broker) -> list:
        handler = registry.broker_dispatch(broker, lambda: NOW)["deposit/batch"]
        flow = registry.batch_deposit_flow(merchant, MERCHANT, "broker")
        try:
            call = next(flow)
            while True:
                call = flow.send(handler(call.payload))
        except StopIteration as done:
            return done.value

    monkeypatch.setattr(wal_module.os, "fsync", fsync)
    with pytest.raises(StoreIOError):
        drain(system.broker)
    # The books in memory ran ahead of the disk.
    assert system.broker.merchant_balance(MERCHANT) == 3 * DENOMINATION
    disk["eio"] = False  # a later fsync returns 0 for the dropped pages
    with pytest.raises(StoreIOError):
        drain(system.broker)
    assert merchant.pending_deposits() == items
    store.close()

    # What the disk holds after the lost pages: the WAL up to its last
    # fsync that returned.
    os.truncate(wal_path, synced[-1])
    restored = recover_broker(tmp_path / "state")
    assert restored.merchant_balance(MERCHANT) == 0
    assert drain(restored) == [{"outcome": "credited", "amount": DENOMINATION}] * 3
    assert merchant.pending_deposits() == []
    assert restored.merchant_balance(MERCHANT) == 3 * DENOMINATION
    assert restored.ledger.conserved()
    assert all(
        isinstance(item, DoubleDepositError)
        for item in restored.deposit_batch(MERCHANT, items, NOW)
    )
    assert restored.merchant_balance(MERCHANT) == 3 * DENOMINATION
