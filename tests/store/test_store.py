"""Tests for the sharded store: recovery, routing, digests."""

import json

import pytest

from repro.store import (
    BACKENDS,
    MAGIC,
    Store,
    StoreCorruptError,
    make_backend,
    open_store,
    shard_index,
)


def seed_ops(target):
    """A fixed little workload touching sharded and singleton spaces."""
    target.put("meta", "state", {"version": 2, "account": "broker"})
    target.put("deposits", "00ab12", {"amount": 25})
    target.put("deposits", "ffcd34", {"amount": 50})
    target.put("renewals", "1a2b3c", {"amount": 25})
    target.put("deposits", "00ab12", {"amount": 30})  # upsert
    target.delete("renewals", "1a2b3c")
    target.put("merchants", "alice-books", {"balance": 55})


def read(store, space, key):
    """The value at ``(space, key)`` in the store's logical state, or ``None``."""
    return store.dump().get(space, {}).get(key)


def one_shard(directory, backend="memory"):
    return Store(directory, backend=backend, shards=1)


# ----------------------------------------------------------------------
# One shard: recovery, compaction, corruption
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_shard_recover_rebuilds_the_same_state(tmp_path, backend):
    store = one_shard(tmp_path, backend)
    seed_ops(store)
    expected = store.dump()
    digest = store.state_digest()
    store.close()

    reopened = one_shard(tmp_path, backend)
    stats = reopened.recover()
    assert reopened.dump() == expected
    assert reopened.state_digest() == digest
    assert stats.replayed_records == 7
    assert stats.snapshot_records == 0
    assert stats.truncated_bytes == 0
    reopened.close()


def test_recovery_is_identical_across_backends_for_one_journal(tmp_path):
    """The same WAL + snapshot materializes the same state everywhere."""
    store = one_shard(tmp_path / "source")
    seed_ops(store)
    store.compact()
    store.put("deposits", "9f9f9f", {"amount": 75})  # journal past the snapshot
    store.close()

    digests = {}
    for backend in BACKENDS:
        one_shard(tmp_path / backend, backend).close()
        for name in ("wal.log", "snapshot.json"):
            source = tmp_path / "source" / "shard-00" / name
            (tmp_path / backend / "shard-00" / name).write_bytes(source.read_bytes())
        reopened = one_shard(tmp_path / backend, backend)
        reopened.recover()
        digests[backend] = reopened.state_digest()
        reopened.close()
    assert len(set(digests.values())) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_replay_is_idempotent(tmp_path, backend):
    """Stale snapshot + a WAL the snapshot already contains: no change."""
    store = one_shard(tmp_path, backend)
    seed_ops(store)
    wal_path = store.shards[0].wal.path
    wal_bytes = wal_path.read_bytes()
    store.compact()  # snapshot now holds everything, WAL reset
    store.close()
    # Simulate a crash between snapshot replace and WAL reset: the old
    # journal (every op the snapshot already has) is still in place.
    wal_path.write_bytes(wal_bytes)

    reopened = one_shard(tmp_path, backend)
    before = reopened.recover()
    digest = reopened.state_digest()
    reopened.close()
    again = one_shard(tmp_path, backend)
    again.recover()
    assert again.state_digest() == digest
    assert before.replayed_records == 7  # the stale journal really replayed
    again.close()


def test_compact_preserves_state_and_empties_the_wal(tmp_path):
    store = one_shard(tmp_path)
    seed_ops(store)
    digest = store.state_digest()
    store.compact()
    assert store.state_digest() == digest
    assert store.shards[0].wal.path.read_bytes() == MAGIC
    # Compacting twice is harmless.
    store.compact()
    assert store.state_digest() == digest
    store.close()

    reopened = one_shard(tmp_path)
    stats = reopened.recover()
    assert stats.snapshot_records == 4
    assert stats.replayed_records == 0
    assert reopened.state_digest() == digest
    reopened.close()


def test_snapshot_garbage_is_corruption(tmp_path):
    store = one_shard(tmp_path)
    seed_ops(store)
    store.compact()
    store.close()
    (tmp_path / "shard-00" / "snapshot.json").write_text("{not json", "utf-8")
    with pytest.raises(StoreCorruptError, match="not valid JSON"):
        one_shard(tmp_path).recover()


def test_snapshot_version_mismatch_is_corruption(tmp_path):
    store = one_shard(tmp_path)
    seed_ops(store)
    store.compact()
    store.close()
    (tmp_path / "shard-00" / "snapshot.json").write_text(
        json.dumps({"version": 999, "spaces": {}}), "utf-8"
    )
    with pytest.raises(StoreCorruptError, match="version 999"):
        one_shard(tmp_path).recover()


def test_unknown_journal_operation_is_corruption(tmp_path):
    store = one_shard(tmp_path)
    store.shards[0].wal.append(
        json.dumps({"op": "increment", "space": "x", "key": "y"}).encode()
    )
    store.close()
    with pytest.raises(StoreCorruptError, match="unknown journal operation"):
        one_shard(tmp_path).recover()


# ----------------------------------------------------------------------
# Sharded store
# ----------------------------------------------------------------------

def test_shard_index_routes_hex_prefixes_and_falls_back():
    assert shard_index("00ab12", 4) == int("00ab12"[:8], 16) % 4
    assert shard_index("ffcd34", 4) == int("ffcd34", 16) % 4
    assert 0 <= shard_index("not-hex-at-all", 4) < 4
    assert shard_index("anything", 1) == 0


def test_sharded_spaces_route_by_key_singletons_pin_to_shard_zero(tmp_path):
    store = Store(tmp_path, backend="memory", shards=4)
    seed_ops(store)
    store.put("merchants", "00ab12", {"balance": 0})
    # Qualified spaces route on the base name before the colon.
    store.put("commitments:alice-books", "00ab12", {"amount": 30})
    expected = shard_index("00ab12", 4)
    assert expected != 0
    owners = {
        (space, key): index
        for index, shard in enumerate(store.shards)
        for space, table in shard.dump().items()
        for key in table
    }
    assert owners[("meta", "state")] == 0
    assert owners[("merchants", "00ab12")] == 0
    assert owners[("deposits", "00ab12")] == expected
    assert owners[("commitments:alice-books", "00ab12")] == expected
    store.close()


def test_store_digest_is_invariant_under_shard_count_and_backend(tmp_path):
    digests = set()
    for backend in BACKENDS:
        for shards in (1, 2, 4):
            directory = tmp_path / f"{backend}-{shards}"
            store = Store(directory, backend=backend, shards=shards)
            seed_ops(store)
            digests.add(store.state_digest())
            store.close()
    assert len(digests) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_recovers_after_abrupt_close_with_torn_tail(tmp_path, backend):
    store = Store(tmp_path, backend=backend, shards=4)
    seed_ops(store)
    expected = store.dump()
    digest = store.state_digest()
    store.close()
    with (tmp_path / "shard-00" / "wal.log").open("ab") as handle:
        handle.write(b"\x00\x00\x00")  # power died mid-header

    reopened = Store(tmp_path, backend=backend, shards=4)
    stats = reopened.recover()
    assert stats.truncated_bytes == 3
    assert reopened.dump() == expected
    assert reopened.state_digest() == digest
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_operation_commits_atomically_across_shards(tmp_path, backend):
    """One operation spanning two shards survives recovery as a whole."""
    store = Store(tmp_path, backend=backend, shards=4)
    with store.operation():
        store.put("ledger", "merchant/acme", {"balance": 25})  # shard 0
        store.put("deposits", "00000001", {"amount": 25})  # shard 1
    store.close()

    reopened = Store(tmp_path, backend=backend, shards=4)
    stats = reopened.recover()
    assert stats.discarded_records == 0
    assert read(reopened, "ledger", "merchant/acme") == {"balance": 25}
    assert read(reopened, "deposits", "00000001") == {"amount": 25}
    reopened.close()


class PowerLoss(Exception):
    """Simulated crash inside a commit."""


def crash_at_the_marker(store):
    """Commit the open operation up to its commit marker: the shards without
    the marker write and fsync their records, then power fails before the
    marker's shard (shard 0, the lowest touched) writes anything."""

    def lose_power(*payloads):
        raise PowerLoss()

    store.shards[0].wal.append = lose_power
    with pytest.raises(PowerLoss):
        store.commit()


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncommitted_operation_is_discarded_whole_on_recovery(tmp_path, backend):
    """A crash before the commit marker lands erases the whole operation.

    This is the double-credit window the operation scope exists to close:
    without it, a ledger credit could survive a crash that lost the
    deposit record journaled to a different shard's WAL.
    """
    store = Store(tmp_path, backend=backend, shards=4)
    store.put("merchants", "acme", {"registered": True})
    store.begin()
    store.put("ledger", "merchant/acme", {"balance": 25})  # shard 0: the marker's
    store.put("deposits", "00000001", {"amount": 25})  # shard 1
    crash_at_the_marker(store)
    store.close()

    reopened = Store(tmp_path, backend=backend, shards=4)
    stats = reopened.recover()
    assert stats.discarded_records == 1  # the deposit reached shard 1's WAL
    assert read(reopened, "ledger", "merchant/acme") is None
    assert read(reopened, "deposits", "00000001") is None
    assert read(reopened, "merchants", "acme") == {"registered": True}
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_open_operation_writes_nothing_before_its_commit(tmp_path, backend):
    store = Store(tmp_path, backend=backend, shards=4)
    store.put("merchants", "acme", {"registered": True})
    wal_bytes = store.wal_bytes()
    store.begin()
    store.put("ledger", "merchant/acme", {"balance": 25})
    store.put("deposits", "00000001", {"amount": 25})
    assert store.wal_bytes() == wal_bytes
    assert read(store, "deposits", "00000001") is None  # nor in a backend
    store.close()  # the process dies with the operation open

    reopened = Store(tmp_path, backend=backend, shards=4)
    stats = reopened.recover()
    assert stats.discarded_records == 0
    assert reopened.dump() == {"merchants": {"acme": {"registered": True}}}
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_aborted_operation_stays_out_of_a_later_compaction(tmp_path, backend):
    """Compaction snapshots the backends, so an aborted write must never
    have reached one."""
    store = one_shard(tmp_path, backend)
    store.begin()
    store.put("deposits", "00000001", {"amount": 25})
    store.abort()
    store.compact()
    store.close()

    reopened = one_shard(tmp_path, backend)
    reopened.recover()
    assert reopened.dump() == {}
    reopened.close()


def test_an_operation_journals_the_last_write_of_each_key(tmp_path):
    store = Store(tmp_path, backend="memory", shards=2)
    with store.operation():
        store.put("merchants", "acme", {"coins": 1})
        store.put("merchants", "acme", {"coins": 2})
        store.put("deposits", "00000001", {"amount": 25})
        store.delete("deposits", "00000001")
        store.delete("renewals", "00000003")
        store.put("renewals", "00000003", {"amount": 5})
    expected = {"merchants": {"acme": {"coins": 2}}, "renewals": {"00000003": {"amount": 5}}}
    assert store.dump() == expected
    # One record per key, and the marker.
    assert sum(shard.wal.appended_records for shard in store.shards) == 4
    store.close()

    reopened = Store(tmp_path, backend="memory", shards=2)
    reopened.recover()
    assert reopened.dump() == expected
    reopened.close()


def test_operation_scope_aborts_on_exception(tmp_path):
    store = Store(tmp_path, backend="memory", shards=2)
    with pytest.raises(RuntimeError, match="request failed"):
        with store.operation():
            store.put("deposits", "00000001", {"amount": 25})
            raise RuntimeError("request failed")
    store.begin()  # the aborted scope is closed
    store.abort()
    store.close()

    reopened = Store(tmp_path, backend="memory", shards=2)
    reopened.recover()
    assert read(reopened, "deposits", "00000001") is None
    reopened.close()


def test_nested_operation_scopes_join_into_one_commit(tmp_path):
    store = Store(tmp_path, backend="memory", shards=2)
    with store.operation():
        with store.operation():
            store.put("deposits", "00000001", {"amount": 25})
        # Still open: the inner scope must not have committed.
        with pytest.raises(RuntimeError, match="already open"):
            store.begin()
        store.put("ledger", "merchant/acme", {"balance": 25})
    store.begin()  # the outer scope committed and closed
    store.abort()
    store.close()

    reopened = Store(tmp_path, backend="memory", shards=2)
    assert reopened.recover().discarded_records == 0
    assert read(reopened, "deposits", "00000001") == {"amount": 25}
    assert read(reopened, "ledger", "merchant/acme") == {"balance": 25}
    reopened.close()


def test_txn_ids_never_collide_after_reopen_without_recover(tmp_path):
    """A fresh store over old WALs must not reissue a committed txn id."""
    store = Store(tmp_path, backend="memory", shards=2)
    with store.operation():
        store.put("deposits", "00000001", {"amount": 25})
    store.close()

    # Attach without recover(), run a new operation, crash before its
    # marker: the record on shard 1 lands, the marker on shard 0 does not.
    attached = Store(tmp_path, backend="memory", shards=2)
    attached.begin()
    attached.put("ledger", "merchant/acme", {"balance": 50})
    attached.put("deposits", "00000003", {"amount": 50})
    crash_at_the_marker(attached)
    attached.close()

    reopened = Store(tmp_path, backend="memory", shards=2)
    stats = reopened.recover()
    assert stats.discarded_records == 1  # only the uncommitted put
    assert read(reopened, "deposits", "00000001") == {"amount": 25}
    assert read(reopened, "deposits", "00000003") is None
    reopened.close()


def test_manifest_pins_the_shard_count(tmp_path):
    Store(tmp_path, backend="memory", shards=4).close()
    with pytest.raises(StoreCorruptError, match="explicit migration"):
        Store(tmp_path, backend="memory", shards=8)


def test_manifest_pins_the_backend(tmp_path):
    Store(tmp_path, backend="sqlite", shards=2).close()
    with pytest.raises(StoreCorruptError, match="use open_store"):
        Store(tmp_path, backend="memory", shards=2)


def test_manifest_is_written_atomically(tmp_path):
    store = Store(tmp_path, backend="memory", shards=2)
    assert not list(tmp_path.glob("*.tmp"))  # no temp file left behind
    manifest = json.loads(store.manifest_path.read_text("utf-8"))
    assert manifest["backend"] == "memory"
    store.close()


def test_open_store_reuses_the_recorded_layout(tmp_path):
    store = Store(tmp_path, backend="sqlite", shards=2)
    seed_ops(store)
    digest = store.state_digest()
    store.close()

    reopened = open_store(tmp_path)
    assert reopened.backend_kind == "sqlite"
    assert reopened.shard_count == 2
    reopened.recover()
    assert reopened.state_digest() == digest
    reopened.close()


def test_open_store_without_a_manifest_is_corruption(tmp_path):
    with pytest.raises(StoreCorruptError, match="no store manifest"):
        open_store(tmp_path / "never-created")


def test_verify_prefixes_problems_with_the_shard(tmp_path):
    store = Store(tmp_path, backend="memory", shards=2)
    seed_ops(store)
    store.close()
    with (tmp_path / "shard-01" / "wal.log").open("ab") as handle:
        handle.write(b"\xff")
    problems = Store(tmp_path, backend="memory", shards=2).verify()
    assert any(problem.startswith("shard-01/") for problem in problems)
    assert not any(problem.startswith("shard-00/") for problem in problems)


def test_unknown_backend_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown store backend"):
        make_backend("postgres", tmp_path / "data.db")


def test_store_requires_at_least_one_shard(tmp_path):
    with pytest.raises(ValueError, match="at least one shard"):
        Store(tmp_path, shards=0)
