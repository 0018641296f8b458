"""The store fails stop: the first failed write, fsync, truncate or replace
raises ``StoreIOError``, every later mutation raises the same error (even
once the disk answers again), and a reopen recovers only what the disk
holds, healing a torn tail on the way. One test per IO site."""

import errno
import os

import pytest

from repro.store import MAGIC, Store, StoreIOError
from repro.store import shard as shard_module
from repro.store import wal as wal_module

COMMITTED = {
    "deposits": {"00000001": {"amount": 25}},
    "ledger": {"merchant/acme": {"balance": 25}},
}


class FlakyFile:
    """Wraps a real file handle: the next call of ``method`` fails with EIO,
    a ``write`` after landing half its bytes, as a short write does."""

    def __init__(self, inner, method):
        self.inner = inner
        self.method = method
        self.armed = True

    def __getattr__(self, name):
        attribute = getattr(self.inner, name)
        if name != self.method or not self.armed:
            return attribute

        def fail(*args):
            self.armed = False
            if name == "write":
                self.inner.write(args[0][: len(args[0]) // 2])
            raise OSError(errno.EIO, "Input/output error")

        return fail


def failing_once(real):
    """``real``, except that its first call fails with EIO."""
    calls = []

    def call(*args):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.EIO, "Input/output error")
        return real(*args)

    return call


def committed_store(directory):
    store = Store(directory, backend="memory", shards=1)
    with store.operation():
        store.put("deposits", "00000001", {"amount": 25})
        store.put("ledger", "merchant/acme", {"balance": 25})
    return store


def second_operation(store):
    with store.operation():
        store.put("deposits", "00000002", {"amount": 50})
        store.put("ledger", "merchant/acme", {"balance": 75})


def assert_fails_stop(store, error):
    """Every later mutation raises ``error``; ``close`` only lets go."""
    for call in (
        store.begin,
        lambda: store.put("deposits", "00000003", {"amount": 5}),
        lambda: store.delete("deposits", "00000001"),
        store.commit,
        store.flush,
        store.compact,
        lambda: second_operation(store),
    ):
        with pytest.raises(StoreIOError) as raised:
            call()
        assert raised.value is error
    store.close()


def reopen(directory):
    store = Store(directory, backend="memory", shards=1)
    stats = store.recover()
    state = store.dump()
    store.close()
    return stats, state


def test_a_failed_append_fails_the_store_and_a_reopen_drops_the_torn_record(tmp_path):
    store = committed_store(tmp_path)
    wal = store.shards[0].wal
    wal._file = FlakyFile(wal._file, "write")
    with pytest.raises(StoreIOError, match="append to wal.log") as raised:
        second_operation(store)
    assert_fails_stop(store, raised.value)
    stats, state = reopen(tmp_path)
    assert stats.truncated_bytes > 0
    assert state == COMMITTED


def test_a_failed_fsync_fails_the_store_and_a_reopen_keeps_what_was_synced(
    tmp_path, monkeypatch
):
    store = committed_store(tmp_path)
    wal_path = store.shards[0].wal.path
    synced = wal_path.stat().st_size
    monkeypatch.setattr(wal_module.os, "fsync", failing_once(os.fsync))
    with pytest.raises(StoreIOError, match="fsync wal.log") as raised:
        second_operation(store)
    assert_fails_stop(store, raised.value)
    # The failed fsync lost the operation's pages but for a few bytes: the
    # disk holds the last fsynced length and a torn piece of what followed.
    os.truncate(wal_path, synced + 5)
    stats, state = reopen(tmp_path)
    assert stats.truncated_bytes == 5
    assert stats.discarded_records == 0
    assert state == COMMITTED


def test_a_failed_reset_fails_the_store_and_a_reopen_heals_the_torn_magic(tmp_path):
    store = committed_store(tmp_path)
    wal = store.shards[0].wal
    wal._file = FlakyFile(wal._file, "write")  # the magic after the truncate
    with pytest.raises(StoreIOError, match="reset wal.log") as raised:
        store.compact()
    assert_fails_stop(store, raised.value)
    stats, state = reopen(tmp_path)
    assert stats.truncated_bytes == len(MAGIC) // 2
    assert stats.snapshot_records == 2
    assert state == COMMITTED
    assert wal.path.read_bytes() == MAGIC


def test_a_failed_snapshot_replace_fails_the_store_and_a_reopen_replays_the_wal(
    tmp_path, monkeypatch
):
    store = committed_store(tmp_path)
    monkeypatch.setattr(shard_module.os, "replace", failing_once(os.replace))
    with pytest.raises(StoreIOError, match="snapshot.json") as raised:
        store.compact()
    assert_fails_stop(store, raised.value)
    assert not (tmp_path / "shard-00" / "snapshot.json").exists()
    stats, state = reopen(tmp_path)
    assert stats.snapshot_records == 0
    assert stats.replayed_records == 2
    assert stats.truncated_bytes == 0
    assert state == COMMITTED


def test_a_failed_manifest_replace_opens_no_store_and_a_reopen_starts_fresh(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(shard_module.os, "replace", failing_once(os.replace))
    with pytest.raises(StoreIOError, match="store.json"):
        Store(tmp_path, backend="memory", shards=1)
    assert not (tmp_path / "store.json").exists()
    # Nothing was opened, so nothing is left to refuse: the next open
    # writes the manifest over the stale temporary file.
    store = committed_store(tmp_path)
    store.close()
    stats, state = reopen(tmp_path)
    assert stats.truncated_bytes == 0
    assert state == COMMITTED


def test_the_failure_chains_the_original_os_error(tmp_path, monkeypatch):
    store = committed_store(tmp_path)
    monkeypatch.setattr(wal_module.os, "fsync", failing_once(os.fsync))
    with pytest.raises(StoreIOError) as raised:
        second_operation(store)
    assert isinstance(raised.value.__cause__, OSError)
    assert raised.value.__cause__.errno == errno.EIO
    store.close()


def test_an_error_before_any_io_propagates_unwrapped_and_fails_nothing(tmp_path):
    """A value the journal cannot encode raises before a byte is written,
    so it is the caller's error, not the disk's: the store goes on."""
    store = committed_store(tmp_path)
    with pytest.raises(TypeError):
        store.put("deposits", "00000002", object())
    assert store.failure is None
    second_operation(store)
    store.close()
    _stats, state = reopen(tmp_path)
    assert state["deposits"]["00000002"] == {"amount": 50}
