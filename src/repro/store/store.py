"""The sharded store: coin-hash-prefix routing over N journaled shards.

The broker's heavy tables — deposits, renewals, witness commitment and
spent-coin tables — are keyed by (a hex encoding of) the coin digest,
the same value the witness layer already partitions over ``[0, 2^k)``.
Sharding by a prefix of that digest therefore aligns storage partitions
with witness ranges: a shard holds exactly the transcripts a
corresponding witness-range subset certifies, and shards journal and
fsync independently (parallel commit under the deposit campaign).

Singleton spaces (``meta``, ``merchants``, ``tickets``, ...) are pinned
to shard 0; sharded spaces (declared in :data:`SHARDED_SPACES`, matched
on the base name before any ``":"`` qualifier) route by key. The shard
count is recorded in a ``store.json`` manifest at creation and verified
on reopen — resharding is a migration, not an accident.

``dump``/``state_digest`` merge all shards into one logical state, so
the digest is invariant under both shard count and backend choice.

A store operation (:meth:`Store.operation`) stages its puts and deletes
in memory, the last write per ``(space, key)`` winning, and writes them
at commit: one buffered write per touched shard, the shards without the
commit marker fsynced before the marker's shard. Nothing of an operation
reaches a WAL or a backend before its commit, so an abort only drops the
stage, and a failed write surfaces at commit, not at the ``put``.

The store fails stop: the first :class:`~repro.store.errors.StoreIOError`
of any shard poisons the whole store, and every later ``begin``, ``put``,
``delete``, ``commit``, ``flush`` or ``compact`` raises it. The memory of
the party above may already hold what the disk refused, so no journal
scope may open again in this life; ``close`` only releases file handles.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import time
import zlib
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.store.errors import StoreCorruptError, StoreIOError
from repro.store.shard import (
    DELETE,
    RecoveryStats,
    Shard,
    commit_record,
    committed_txns,
    journal_record,
    write_atomically,
)
from repro.store.wal import scan_wal_bytes

#: Base space names routed by key; every other space pins to shard 0.
SHARDED_SPACES = frozenset({"deposits", "renewals", "commitments", "spent"})

#: Manifest format version, checked on reopen.
MANIFEST_VERSION = 1

#: What an inner :meth:`Store.operation` scope is: it joins the open one.
_JOINED = contextlib.nullcontext()


def shard_index(key: str, shards: int) -> int:
    """Route a key to a shard by its leading hex digits.

    Keys in sharded spaces are hex coin digests, so the first eight
    digits are a uniform 32-bit prefix; non-hex keys fall back to CRC32
    so routing stays total.
    """
    if shards <= 1:
        return 0
    prefix = key[:8]
    try:
        value = int(prefix, 16)
    except ValueError:
        value = zlib.crc32(key.encode("utf-8"))
    return value % shards


class Store:
    """A fixed set of shards behind one put/delete surface.

    Args:
        directory: the store's root directory (manifest + ``shard-NN``
            subdirectories live here).
        backend: backend name for every shard (``"memory"``/``"sqlite"``).
        shards: number of shards; fixed at creation by the manifest.

    Raises:
        StoreCorruptError: the directory has a manifest that disagrees
            with the requested layout (shard count) or is unreadable.
        StoreIOError: writing a new manifest failed.
    """

    def __init__(
        self, directory: str | Path, *, backend: str = "memory", shards: int = 4
    ) -> None:
        if shards < 1:
            raise ValueError("a store needs at least one shard")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.backend_kind = backend
        self.shard_count = self._check_manifest(shards, backend)
        #: The first IO failure of any shard; once set, every write raises it.
        self.failure: StoreIOError | None = None
        self._active_txn: int | None = None
        #: The open operation's writes by ``(space, key)``; :data:`DELETE`
        #: stages a deletion.
        self._stage: dict[tuple[str, str], object] = {}
        self._txn_counter: itertools.count[int] | None = None
        self.shards = [
            Shard(self.directory / f"shard-{index:02d}", backend=backend)
            for index in range(self.shard_count)
        ]

    @property
    def manifest_path(self) -> Path:
        """Where the store manifest lives."""
        return self.directory / "store.json"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, space: str, key: str) -> int:
        base = space.split(":", 1)[0]
        if base in SHARDED_SPACES:
            return shard_index(key, self.shard_count)
        return 0

    # ------------------------------------------------------------------
    # Mutation (staged in the open operation, written at its commit)
    # ------------------------------------------------------------------
    def put(self, space: str, key: str, value: object) -> None:
        """Upsert a JSON-encodable value: staged in the open operation, or
        journaled and applied at once outside any."""
        self._stage_or_write(space, key, value)

    def delete(self, space: str, key: str) -> None:
        """Delete a key: staged in the open operation, or journaled and
        applied at once outside any."""
        self._stage_or_write(space, key, DELETE)

    def _stage_or_write(self, space: str, key: str, value: object) -> None:
        if self.failure is not None:
            raise self.failure
        if self._active_txn is None:
            self._write({(space, key): value}, None)
        else:
            self._stage[(space, key)] = value  # the last write wins

    def _write(self, ops: dict[tuple[str, str], object], txn: int | None) -> None:
        """Journal ``ops`` (with ``txn``'s commit marker when it is set), then
        apply them.

        Every record is encoded before a byte is written, so a value the
        journal cannot encode fails the call and nothing else. Each shard
        gets one write: the shards without the marker are fsynced first,
        then the marker's shard (the lowest touched) with its own records,
        so a durable marker implies durable records.
        """
        by_shard: dict[int, list[tuple[str, str, object]]] = {}
        for (space, key), value in ops.items():
            by_shard.setdefault(self._route(space, key), []).append((space, key, value))
        order = sorted(by_shard)
        payloads = {
            index: [journal_record(space, key, value, txn) for space, key, value in ops_of]
            for index, ops_of in by_shard.items()
        }
        if txn is not None:
            payloads[order[0]].append(commit_record(txn))
            order.append(order.pop(0))
        with self._fail_stop():
            for index in order:
                self.shards[index].wal.append(*payloads[index])
        for index in order:
            self.shards[index].apply(by_shard[index])

    @contextlib.contextmanager
    def _fail_stop(self) -> Iterator[None]:
        """Raise the store's earlier failure, or keep this block's as it."""
        if self.failure is not None:
            raise self.failure
        try:
            yield
        except StoreIOError as error:
            self.failure = error
            raise

    # ------------------------------------------------------------------
    # Atomic logical operations
    # ------------------------------------------------------------------
    def operation(self) -> contextlib.AbstractContextManager[None]:
        """Scope one atomic logical operation (re-entrant: inner scopes join).

        Every ``put``/``delete`` inside the scope is staged in memory, the
        last write per ``(space, key)`` winning; scope exit journals the
        staged writes tagged with one transaction id, then a commit
        marker, and only then applies them to the backends. A crash
        before the marker is durable discards the *whole* operation on
        replay, never a prefix of it; an exception inside the scope
        aborts it, and nothing of it reaches the WAL or a backend. This
        is what makes a deposit's ledger credit and its transcript record
        a single durability unit even though they land in different
        shards' WALs.
        """
        if self._active_txn is not None:
            return _JOINED
        return self._scope()

    @contextlib.contextmanager
    def _scope(self) -> Iterator[None]:
        self.begin()
        try:
            yield
        except BaseException:
            self.abort()
            raise
        else:
            self.commit()

    def begin(self) -> None:
        """Open a transaction scope (prefer :meth:`operation`).

        Raises:
            StoreIOError: the store has failed.
            RuntimeError: an operation is already open.
        """
        if self.failure is not None:
            raise self.failure
        if self._active_txn is not None:
            raise RuntimeError("a store operation is already open")
        if self._txn_counter is None:
            self._txn_counter = itertools.count(self._scan_highest_txn() + 1)
        self._active_txn = next(self._txn_counter)
        self._stage = {}

    def commit(self) -> None:
        """Make the open operation durable: its records, then the marker.

        The staged writes are journaled (:meth:`_write`): every shard
        holding the operation's records is fsynced *before* the commit
        marker's shard is, so a durable marker implies durable records —
        and an absent marker means recovery discards the half-written
        operation. A failed write or fsync of any of them surfaces here.

        Raises:
            StoreIOError: the store has failed, now or earlier.
            TypeError: a staged value is not JSON-encodable (the
                operation is dropped, and nothing was written).
            RuntimeError: no operation is open.
        """
        if self.failure is not None:
            raise self.failure
        if self._active_txn is None:
            raise RuntimeError("no store operation is open")
        txn, staged = self._active_txn, self._stage
        self._active_txn, self._stage = None, {}
        if staged:
            self._write(staged, txn)

    def abort(self) -> None:
        """Close the open operation without committing it: its staged
        writes are dropped, and none of them reached the WAL or a backend."""
        self._active_txn = None
        self._stage = {}

    def _scan_highest_txn(self) -> int:
        """Highest transaction id in the on-disk WALs (0 when none).

        Run once, lazily, so a store attached over a pre-existing
        directory without an explicit :meth:`recover` never reissues a
        transaction id an earlier life already committed.
        """
        highest = 0
        for shard in self.shards:
            if not shard.wal.path.exists():
                continue
            scanned = scan_wal_bytes(shard.wal.path.read_bytes())
            for payload in scanned.payloads:
                op = json.loads(payload.decode("utf-8"))
                txn = op.get("txn")
                if txn is not None:
                    highest = max(highest, int(txn))
        return highest

    def dump(self) -> dict[str, dict[str, object]]:
        """Merged logical state over all shards: ``{space: {key: value}}``."""
        merged: dict[str, dict[str, object]] = {}
        for shard in self.shards:
            for space, table in shard.dump().items():
                merged.setdefault(space, {}).update(table)
        return {
            space: dict(sorted(table.items()))
            for space, table in sorted(merged.items())
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryStats:
        """Recover every shard; return summed :class:`RecoveryStats`.

        Commit markers are resolved across *all* shards before any
        journal record is applied: an operation's records may live on
        one shard and its marker on another, and a record whose
        operation never committed is discarded — it was never
        acknowledged to any caller.
        """
        started = time.perf_counter()
        with self._fail_stop():
            bases = [shard.load_base() for shard in self.shards]
        committed, highest = committed_txns([ops for _count, ops in bases])
        self._txn_counter = itertools.count(highest + 1)
        applied_total = 0
        discarded_total = 0
        for shard, (_count, ops) in zip(self.shards, bases):
            applied, discarded = shard.apply_ops(ops, committed)
            applied_total += applied
            discarded_total += discarded
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.observe("store_replay_ms", elapsed_ms)
        obs.counter_inc("store_replayed_records_total", float(applied_total))
        return RecoveryStats(
            snapshot_records=sum(count for count, _ops in bases),
            replayed_records=applied_total,
            truncated_bytes=sum(shard.wal.truncated_bytes for shard in self.shards),
            replay_ms=elapsed_ms,
            discarded_records=discarded_total,
        )

    def compact(self) -> None:
        """Snapshot every shard, then reset every WAL — in that order.

        Two phases, not per-shard compaction: a commit marker on shard A
        may commit records on shard B, so no WAL may be reset until
        *every* shard's records are safe in a snapshot. A crash between
        the phases leaves stale-snapshot + longer-WAL layouts that
        recovery already replays idempotently.

        Raises:
            StoreIOError: the store has failed, now or earlier.
            RuntimeError: called inside an open :meth:`operation`.
        """
        if self._active_txn is not None:
            raise RuntimeError("cannot compact inside an open store operation")
        with self._fail_stop():
            for shard in self.shards:
                shard.write_snapshot()
            for shard in self.shards:
                shard.wal.reset()
                shard.backend.flush()

    def verify(self) -> list[str]:
        """Collect integrity problems from the manifest and every shard."""
        problems: list[str] = []
        try:
            self._check_manifest(self.shard_count, self.backend_kind)
        except StoreCorruptError as error:
            problems.append(str(error))
        for index, shard in enumerate(self.shards):
            for issue in shard.verify():
                problems.append(f"shard-{index:02d}/{issue}")
        return problems

    def state_digest(self) -> str:
        """SHA-256 over the merged canonical dump.

        Invariant under shard count and backend — the property the
        chaos suite's cross-backend recovery check rests on.
        """
        canonical = json.dumps(
            self.dump(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()

    def wal_bytes(self) -> int:
        """Total WAL size across shards (the ``store_wal_bytes`` gauge)."""
        return sum(shard.wal.size_bytes for shard in self.shards)

    def flush(self) -> None:
        """Fsync every WAL and commit every backend."""
        with self._fail_stop():
            for shard in self.shards:
                shard.flush()

    def close(self) -> None:
        """Flush (unless the store has failed) and release every shard."""
        try:
            if self.failure is None:
                self.flush()
        finally:
            for shard in self.shards:
                shard.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_manifest(self, shards: int, backend: str) -> int:
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text("utf-8"))
            except ValueError as error:
                raise StoreCorruptError(
                    f"{self.manifest_path}: manifest is not valid JSON ({error})"
                ) from error
            if manifest.get("version") != MANIFEST_VERSION:
                raise StoreCorruptError(
                    f"{self.manifest_path}: manifest version "
                    f"{manifest.get('version')!r} (expected {MANIFEST_VERSION})"
                )
            recorded = int(manifest["shards"])
            if recorded != shards:
                raise StoreCorruptError(
                    f"{self.manifest_path}: store was created with "
                    f"{recorded} shard(s), reopened with {shards} — "
                    "resharding requires an explicit migration"
                )
            recorded_backend = str(manifest.get("backend", backend))
            if recorded_backend != backend:
                raise StoreCorruptError(
                    f"{self.manifest_path}: store was created with the "
                    f"{recorded_backend!r} backend, reopened with "
                    f"{backend!r} — use open_store() to reuse the "
                    "recorded layout"
                )
            return recorded
        # Written like a snapshot, so a crash during store creation leaves
        # either no manifest (a fresh start) or a complete one, never a
        # truncated file every later open would reject as corrupt.
        payload = json.dumps(
            {"version": MANIFEST_VERSION, "shards": shards, "backend": backend},
            sort_keys=True,
        ).encode("utf-8")
        write_atomically(self.manifest_path, payload)
        return shards


def open_store(directory: str | Path) -> Store:
    """Open an existing store using the layout its manifest records.

    Unlike :class:`Store`, which takes the layout as arguments (and
    creates the manifest on first use), this reads ``store.json`` and
    reopens with the recorded backend and shard count — the right call
    for tooling (``repro store``) that inspects a store it did not
    create.

    Raises:
        StoreCorruptError: no manifest, or the manifest is unreadable.
    """
    manifest_path = Path(directory) / "store.json"
    if not manifest_path.exists():
        raise StoreCorruptError(f"{manifest_path}: no store manifest found")
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except ValueError as error:
        raise StoreCorruptError(
            f"{manifest_path}: manifest is not valid JSON ({error})"
        ) from error
    return Store(
        directory,
        backend=str(manifest.get("backend", "memory")),
        shards=int(manifest.get("shards", 1)),
    )


__all__ = ["MANIFEST_VERSION", "SHARDED_SPACES", "Store", "open_store", "shard_index"]
