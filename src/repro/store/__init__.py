"""repro.store — durable, sharded storage under the broker and witnesses.

The paper's double-spend guarantee is only as strong as the broker's
memory of past deposits: a broker that forgets a transcript after a
crash re-opens the exact window the witness layer closes. This package
provides that memory as three small layers:

* :class:`~repro.store.wal.WriteAheadLog` — an append-only journal of
  length-prefixed, CRC-checked records; every mutation is journaled and
  fsynced *before* it is acknowledged;
* :class:`~repro.store.shard.Shard` — one journaled partition: WAL +
  atomic snapshot + a materialized :class:`~repro.store.backend.KVBackend`
  (in memory for the daemons and simulations; SQLite is kept for the
  cross-backend checks and the in-process store benchmark) rebuilt
  wholesale on recovery, so recovered state is a function of the
  journal alone;
* :class:`~repro.store.store.Store` — a fixed set of shards routed by
  coin-hash prefix, aligned with the witness ranges that already
  partition ``[0, 2^k)``; an atomic operation stages its writes here
  (the last write per key wins) until its commit writes them, one
  buffered write per shard, and an abort drops them; recovery and
  compaction run here only.

The store fails stop: the first failed write, fsync, truncate or
replace raises :class:`~repro.store.errors.StoreIOError`, and every later
mutation raises it again — nothing is retried, and the owner's next life
recovers only what the disk holds. Structural damage beyond a torn final
WAL record raises :class:`~repro.store.errors.StoreCorruptError`.
``repro.core.persistence`` builds broker/witness journaling on top;
``repro.daemon`` wires recovery into every durable daemon
(``--state-dir``) and exits on a store failure; ``repro.faults``
crash-tests the whole path.
"""

from __future__ import annotations

from repro.store.backend import (
    BACKENDS,
    KVBackend,
    MemoryBackend,
    SQLiteBackend,
    make_backend,
)
from repro.store.errors import StoreCorruptError, StoreError, StoreIOError
from repro.store.shard import RecoveryStats, SNAPSHOT_VERSION, Shard
from repro.store.store import (
    MANIFEST_VERSION,
    SHARDED_SPACES,
    Store,
    open_store,
    shard_index,
)
from repro.store.wal import MAGIC, WalScan, WriteAheadLog, scan_wal_bytes

__all__ = [
    "BACKENDS",
    "KVBackend",
    "MAGIC",
    "MANIFEST_VERSION",
    "MemoryBackend",
    "RecoveryStats",
    "SHARDED_SPACES",
    "SNAPSHOT_VERSION",
    "SQLiteBackend",
    "Shard",
    "Store",
    "StoreCorruptError",
    "StoreError",
    "StoreIOError",
    "WalScan",
    "WriteAheadLog",
    "make_backend",
    "open_store",
    "scan_wal_bytes",
    "shard_index",
]
