"""Tests for broker and witness state persistence across restarts."""

import pytest

from repro.core.broker import _BrokerMeta
from repro.core.exceptions import DoubleDepositError, RenewalRefusedError
from repro.core.persistence import (
    attach_broker_store,
    attach_witness_store,
    broker_spaces,
    witness_spaces,
)
from repro.core.protocols import run_deposit, run_payment, run_renewal, run_withdrawal
from repro.core.system import EcashSystem
from repro.core.witness import WitnessService
from repro.crypto.serialize import decode
from repro.store import Store, StoreCorruptError
from tests.conftest import other_merchant, save_broker_state


@pytest.fixture()
def busy_system(system, funded_client, tmp_path):
    """A system with a deposit and a renewal already in the books."""
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    renewed_source = run_withdrawal(client, system.broker, system.standard_info(50, now=0))
    fresh = run_renewal(
        client, renewed_source, system.broker, system.standard_info(50, now=30), now=30
    )
    path = tmp_path / "broker-state"
    save_broker_state(system.broker, path)
    return system, client, merchant, signed, renewed_source, fresh, path


def test_keys_survive_restart(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    assert restored.blind_public == system.broker.blind_public
    assert restored.sign_public == system.broker.sign_public


def test_old_coins_verify_after_restart(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    fresh.coin.ensure_valid_signature(system.params, restored.blind_public)
    # The witness tables came back signed and valid.
    table = restored.current_table
    entry = table.witness_for(fresh.coin.digest(system.params))
    assert entry.merchant_id == fresh.coin.witness_id


def test_double_deposit_detected_across_restart(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    with pytest.raises(DoubleDepositError):
        restored.deposit(merchant.merchant_id, signed, now=100)


def test_renewal_refused_across_restart(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    client.wallet.add(renewed_source)
    with pytest.raises(RenewalRefusedError) as refusal:
        run_renewal(
            client, renewed_source, restored, system.standard_info(50, now=200), now=200
        )
    assert refusal.value.proof.verify(system.params, renewed_source.coin)


def test_ledger_restored_and_conserved(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    assert restored.ledger.conserved()
    assert restored.merchant_balance(merchant.merchant_id) == system.broker.merchant_balance(
        merchant.merchant_id
    )
    for merchant_id in system.merchant_ids:
        assert restored.security_deposit_balance(
            merchant_id
        ) == system.broker.security_deposit_balance(merchant_id)


def test_new_withdrawals_work_after_restart(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    # A brand-new client can withdraw and spend against the restored broker.
    newcomer = system.new_client()
    stored = run_withdrawal(newcomer, restored, system.standard_info(25, now=300))
    stored.coin.ensure_valid_signature(system.params, system.broker.blind_public)


def test_merchant_registry_restored(busy_system, recover_broker):
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    restored = recover_broker(path)
    assert set(restored.merchants) == set(system.merchant_ids)
    for merchant_id in system.merchant_ids:
        assert (
            restored.merchants[merchant_id].public_key
            == system.broker.merchants[merchant_id].public_key
        )


# ----------------------------------------------------------------------
# Exhaustive snapshot round-trips (including in-flight tickets)
# ----------------------------------------------------------------------

def test_save_load_save_is_byte_identical_with_inflight_tickets(
    busy_system, recover_broker, tmp_path
):
    """Every table round-trips: the recovered broker's state equals the
    first one's, string for string, even with withdrawal and batch
    tickets still in flight — and it is what the store holds."""
    system, client, merchant, signed, renewed_source, fresh, path = busy_system
    broker = system.broker
    # Leave a plain ticket and a batch ticket open mid-protocol.
    broker.begin_withdrawal(system.standard_info(25, now=40))
    broker.begin_batch_withdrawal(
        [system.standard_info(25, now=41), system.standard_info(50, now=41)]
    )
    assert broker._tickets and broker._batch_tickets
    assert broker._renewals and broker._deposits
    save_broker_state(broker, tmp_path / "first")
    reloaded = recover_broker(tmp_path / "first")
    assert broker_spaces(reloaded) == broker_spaces(broker)
    assert reloaded.journal.store.dump() == broker_spaces(broker)


def test_inflight_tickets_complete_against_the_restored_broker(
    system, recover_broker, tmp_path
):
    """A withdrawal begun before the save finishes after the load."""
    client = system.new_client()
    info = system.standard_info(25, now=0)
    ticket, challenge = system.broker.begin_withdrawal(info)
    signer = client.begin_withdrawal(info, challenge)
    save_broker_state(system.broker, tmp_path / "mid-withdrawal")
    restored = recover_broker(tmp_path / "mid-withdrawal")
    response = restored.complete_withdrawal(ticket, signer.e)
    stored = client.finish_withdrawal(signer, response, restored.current_table)
    stored.coin.ensure_valid_signature(system.params, restored.blind_public)
    # The ticket was consumed by the restored broker too.
    with pytest.raises(KeyError):
        restored.complete_withdrawal(ticket, signer.e)


def test_ticket_counter_does_not_collide_after_restore(system, recover_broker, tmp_path):
    info = system.standard_info(25, now=0)
    ticket, _challenge = system.broker.begin_withdrawal(info)
    save_broker_state(system.broker, tmp_path / "counter")
    restored = recover_broker(tmp_path / "counter")
    fresh_ticket, _ = restored.begin_withdrawal(info)
    assert fresh_ticket > ticket


# ----------------------------------------------------------------------
# Journaling into a store + crash recovery
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_journaled_broker_recovers_from_the_store(
    system, funded_client, recover_broker, tmp_path, backend
):
    store = Store(tmp_path / "state", backend=backend, shards=4)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    expected = broker_spaces(system.broker)
    store.close()  # crash: nothing flushed beyond the acknowledged journal

    reopened = Store(tmp_path / "state", backend=backend, shards=4)
    restored = recover_broker(reopened)
    assert broker_spaces(restored) == expected
    assert restored.ledger.conserved()
    with pytest.raises(DoubleDepositError):
        restored.deposit(merchant.merchant_id, signed, now=100)
    reopened.close()


def test_attach_broker_store_restores_in_place(system, funded_client, tmp_path):
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    expected = broker_spaces(system.broker)
    store.close()

    reopened = Store(tmp_path / "state", backend="memory", shards=2)
    # Same broker object: references held by dispatchers stay valid.
    stats = attach_broker_store(system.broker, reopened)
    assert broker_spaces(system.broker) == expected
    assert stats.replayed_records > 0
    reopened.close()


# ----------------------------------------------------------------------
# Atomic settlement: a half-journaled deposit never survives recovery
# ----------------------------------------------------------------------

class PowerLoss(Exception):
    """Simulated crash between the record fsyncs and the commit marker."""


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_crashed_deposit_is_discarded_whole_and_safe_to_retry(
    system, funded_client, recover_broker, tmp_path, backend
):
    """A crash mid-settlement must not leave the merchant credited
    without a deposit record — the retry would double-credit."""
    store = Store(tmp_path / "state", backend=backend, shards=4)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)

    def crash_before_marker():
        raise PowerLoss()

    store.commit = crash_before_marker  # the marker never reaches disk
    with pytest.raises(PowerLoss):
        system.broker.deposit(merchant.merchant_id, signed, now=20)
    store.close()  # flushes the orphaned records; still no marker

    reopened = Store(tmp_path / "state", backend=backend, shards=4)
    restored = recover_broker(reopened)
    # Neither half of the settlement survived: no credit, no record.
    assert restored.merchant_balance(merchant.merchant_id) == 0
    assert not restored._deposits
    assert restored.ledger.conserved()
    # The retry is then an ordinary first deposit: exactly one credit.
    restored.deposit(merchant.merchant_id, signed, now=30)
    assert restored.merchant_balance(merchant.merchant_id) == 25
    with pytest.raises(DoubleDepositError):
        restored.deposit(merchant.merchant_id, signed, now=40)
    reopened.close()


def test_begin_renewal_journals_its_ticket(system, recover_broker, tmp_path):
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    ticket_id, _challenge = system.broker.begin_renewal(
        system.standard_info(50, now=30)
    )
    assert str(ticket_id) in store.dump()["tickets"]
    meta = _BrokerMeta.from_record(decode(store.dump()["meta"]["state"]))
    assert meta.next_ticket == ticket_id + 1
    store.close()

    reopened = Store(tmp_path / "state", backend="memory", shards=2)
    restored = recover_broker(reopened)
    # The in-flight ticket survived, and the counter moved past it.
    assert ticket_id in restored._tickets
    fresh_ticket, _ = restored.begin_withdrawal(system.standard_info(25, now=31))
    assert fresh_ticket > ticket_id
    reopened.close()


def test_journaled_meta_matches_the_full_snapshot(system, tmp_path):
    """The incremental meta record equals the one a full dump produces."""
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    system.broker.begin_withdrawal(system.standard_info(25, now=0))
    assert store.dump()["meta"]["state"] == broker_spaces(system.broker)["meta"]["state"]
    store.close()


def test_recovery_rejects_a_record_without_its_funding_credit(
    system, funded_client, recover_broker, tmp_path
):
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    # Surgically remove the funding movement, leaving the deposit record.
    ledger_table = store.dump()["ledger"]
    key = next(k for k, v in ledger_table.items() if decode(v)["memo"] == "coin deposit")
    store.delete("ledger", key)
    store.close()

    reopened = Store(tmp_path / "state", backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match="without its funding movement"):
        recover_broker(reopened)
    reopened.close()


# ----------------------------------------------------------------------
# Witness journaling round-trips
# ----------------------------------------------------------------------

def test_witness_journal_round_trips_through_a_store(
    system, funded_client, tmp_path
):
    client, stored = funded_client
    witness = system.witness_of(stored)
    store = Store(tmp_path / "witness", backend="sqlite", shards=2)
    attach_witness_store(witness, store)
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, witness, now=10)
    expected = witness_spaces(witness)
    store.close()

    reopened = Store(tmp_path / "witness", backend="sqlite", shards=2)
    blank = WitnessService(
        params=system.params,
        merchant_id=witness.merchant_id,
        keypair=witness.keypair,
        broker_sign_public=witness.broker_sign_public,
        broker_blind_public=witness.broker_blind_public,
    )
    stats = attach_witness_store(blank, reopened)
    assert stats.replayed_records > 0
    assert witness_spaces(blank) == expected
    assert blank.signed_count == witness.signed_count
    digest = stored.coin.digest(system.params)
    assert digest in blank._spent
    assert blank.journal is not None and blank.journal.store is reopened
    reopened.close()


def test_sign_transcript_commits_once(system, funded_client, tmp_path):
    """Recording the spent coin and dropping its commitment are one
    durability unit: one commit, so a crash keeps both or neither."""
    client, stored = funded_client
    witness = system.witness_of(stored)
    store = Store(tmp_path / "witness", backend="sqlite", shards=4)
    attach_witness_store(witness, store)
    commits = []  # the witness's signed_count at each commit
    commit = store.commit

    def counted_commit():
        commits.append(witness.signed_count)
        commit()

    store.commit = counted_commit
    merchant_id = other_merchant(system, stored.coin.witness_id)
    request, pending = client.prepare_commitment_request(stored, merchant_id, 10)
    commitment = witness.request_commitment(request, now=10)
    transcript = client.build_payment(pending, commitment, witness.public_key, 10)
    assert commits == [0]  # the commitment
    witness.sign_transcript(transcript, now=10)
    assert commits == [0, 1]  # spent record, counter and commitment drop together
    store.close()


# ----------------------------------------------------------------------
# A state dir this code did not write is refused whole
# ----------------------------------------------------------------------

def _untouched(broker, before) -> bool:
    return broker_spaces(broker) == before and broker.journal is None


def test_a_state_dir_in_the_old_record_format_is_refused_not_half_restored(
    system, funded_client, tmp_path
):
    """Before records were wire-codec strings a stored value was a nested
    JSON object. Such a state dir is named for what it is, and the broker
    it was offered to keeps its merchants, deposits and ledger."""
    old = Store(tmp_path / "state", backend="sqlite", shards=4)
    with old.operation():
        old.put(
            "meta",
            "state",
            {
                "account": "broker",
                "blind_secret": "AQ",
                "sign_secret": "Ag",
                "next_version": 2,
                "next_ticket": 1,
            },
        )
        old.put(
            "merchants",
            "alice-books",
            {"public_key": "BA", "security_deposit": 10000, "coins_witnessed": 0, "incidents": 0},
        )
        old.put("ledger", "000000000000", {"src": "<external>", "dst": "x", "memo": "", "amount": 1})
    old.close()

    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    before = broker_spaces(system.broker)
    reopened = Store(tmp_path / "state", backend="sqlite", shards=4)
    with pytest.raises(StoreCorruptError, match="older nested-JSON record format"):
        attach_broker_store(system.broker, reopened)
    assert _untouched(system.broker, before)
    assert system.broker._deposits and system.broker.ledger.conserved()
    reopened.close()


@pytest.mark.parametrize(
    "damage",
    [{"signed": {}, "deposited_at": 20}, "signed.wsig_e=AQ", "deposited_at=%zz"],
    ids=["old-format", "fields-missing", "not-an-integer"],
)
def test_one_unreadable_record_leaves_the_broker_untouched(
    system, funded_client, tmp_path, damage
):
    """Every record is parsed before the broker is touched: the meta
    record and the merchants read fine here, the one deposit does not."""
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    (key,) = store.dump()["deposits"]
    store.put("deposits", key, damage)
    store.close()

    blank = EcashSystem(merchant_ids=("solo",), params=system.params, seed=5).broker
    before = broker_spaces(blank)
    reopened = Store(tmp_path / "state", backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match=f"deposits/{key}"):
        attach_broker_store(blank, reopened)
    assert _untouched(blank, before)
    reopened.close()


@pytest.mark.parametrize("index", ["e00", "ex"])
def test_a_respelled_group_index_is_a_corrupt_record(system, tmp_path, index):
    """An indexed group is ``e0..e{n-1}`` exactly; a stored table whose
    first entry is spelled otherwise is a corrupt record of that space
    and key, not a protocol violation escaping recovery."""
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    key, value = next(iter(store.dump()["tables"].items()))
    store.put("tables", key, value.replace("entries.e0.", f"entries.{index}."))
    store.close()

    blank = EcashSystem(merchant_ids=("solo",), params=system.params, seed=5).broker
    before = broker_spaces(blank)
    reopened = Store(tmp_path / "state", backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match=f"tables/{key}: malformed record"):
        attach_broker_store(blank, reopened)
    assert _untouched(blank, before)
    reopened.close()


# ----------------------------------------------------------------------
# A state dir holding another party's state is refused
# ----------------------------------------------------------------------

def _state_of(attach, party, path):
    store = Store(path, backend="memory", shards=2)
    attach(party, store)
    store.close()
    return path


def test_a_brokers_state_dir_is_refused_to_a_witness(system, tmp_path):
    path = _state_of(attach_broker_store, system.broker, tmp_path / "broker")
    witness = system.witness(system.merchant_ids[0])
    before = witness_spaces(witness)
    reopened = Store(path, backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match="meta.*no 'witness:alice-books'"):
        attach_witness_store(witness, reopened)
    assert witness_spaces(witness) == before and witness.journal is None
    assert "witness:alice-books" not in reopened.dump()
    reopened.close()


def test_one_witness_state_dir_is_refused_to_another(system, tmp_path):
    first, second = (system.witness(m) for m in system.merchant_ids[:2])
    path = _state_of(attach_witness_store, first, tmp_path / "first")
    reopened = Store(path, backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match="witness:alice-books but no 'witness:bob-news'"):
        attach_witness_store(second, reopened)
    assert second.journal is None and second.rng is not None
    reopened.close()


def test_a_witness_state_dir_is_refused_to_the_broker(system, tmp_path):
    path = _state_of(attach_witness_store, system.witness("alice-books"), tmp_path / "w")
    before = broker_spaces(system.broker)
    reopened = Store(path, backend="memory", shards=2)
    with pytest.raises(StoreCorruptError, match="witness:alice-books but no 'meta'"):
        attach_broker_store(system.broker, reopened)
    assert _untouched(system.broker, before)
    assert "meta" not in reopened.dump()
    reopened.close()
