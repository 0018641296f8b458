"""One shard: a write-ahead log + snapshot + materialized backend.

Every mutation follows the same discipline, driven by the store at the
commit of the operation it belongs to (a put outside any operation is
its own commit):

1. encode each operation as JSON (:func:`journal_record`) and
   :meth:`append <WriteAheadLog.append>` the shard's share of them to its
   WAL in one write, fsynced before the call returns — the caller only
   acknowledges *after* the journal is durable;
2. apply them to the backend (:meth:`Shard.apply`).

Until then nothing of an operation is in the WAL or the backend, so an
aborted operation leaves no trace in either.

Recovery inverts that: clear the backend, load the last snapshot (an
atomically-replaced JSON file), then replay the WAL front to back. Both
``put`` and ``delete`` replay idempotently, so the stale-snapshot +
longer-WAL case (crash between snapshot write and WAL truncation during
compaction) merely re-applies operations the snapshot already contains.
Because the backend is rebuilt wholesale, two shards fed the same
snapshot + journal materialize the same logical state regardless of
backend — that is the cross-backend recovery-identity property the chaos
suite asserts.

A shard is driven by its :class:`~repro.store.store.Store`, which owns
recovery (commit markers on one shard commit records on another) and
compaction: write a new snapshot of the current state (tmp file, fsync,
``os.replace``), then reset the WAL. A crash at any point leaves either
the old snapshot + full WAL or the new snapshot + (possibly still-full)
WAL — both recover to the same state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.store.backend import KVBackend, make_backend
from repro.store.errors import StoreCorruptError, StoreIOError
from repro.store.wal import WriteAheadLog

#: Snapshot format version, checked on load.
SNAPSHOT_VERSION = 1


def write_atomically(path: Path, payload: bytes) -> None:
    """Replace ``path`` with ``payload``: tmp file, fsync, ``os.replace``.

    A crash leaves the old file or the new one, never a truncated one.

    Raises:
        StoreIOError: a write, the fsync or the replace failed.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as error:
        raise StoreIOError(f"write {path.name} failed: {error}") from error


@dataclass(frozen=True)
class RecoveryStats:
    """What one shard recovery did (summed per store by the caller).

    ``discarded_records`` counts journal operations dropped because they
    belong to a logical operation whose commit marker never made it to
    disk — by construction these were never acknowledged to any caller.
    """

    snapshot_records: int
    replayed_records: int
    truncated_bytes: int
    replay_ms: float
    discarded_records: int = 0


def committed_txns(
    ops_lists: "list[list[dict[str, object]]]",
) -> tuple[set[int], int]:
    """Collect committed transaction ids (and the highest id seen).

    A journal record tagged ``"txn": N`` belongs to logical operation
    ``N`` and only takes effect if a ``{"op": "commit", "txn": N}``
    marker exists — on *any* shard, which is why the caller passes every
    shard's decoded operations together.
    """
    committed: set[int] = set()
    highest = 0
    for ops in ops_lists:
        for op in ops:
            txn = op.get("txn")
            if txn is None:
                continue
            highest = max(highest, int(txn))  # type: ignore[call-overload]
            if op.get("op") == "commit":
                committed.add(int(txn))  # type: ignore[call-overload]
    return committed, highest


#: The staged value of a deletion (``None`` is a value a key may hold).
DELETE = object()


#: Spells a journal record as ``json.dumps(record, sort_keys=True)`` does,
#: without building an encoder per record.
_ENCODER = json.JSONEncoder(sort_keys=True)


def journal_record(space: str, key: str, value: object, txn: int | None) -> bytes:
    """One journal operation as the WAL stores it: a put, or a delete when
    ``value`` is :data:`DELETE`, tagged with ``txn`` when it is set.

    Raises:
        TypeError: ``value`` is not JSON-encodable (nothing was written).
    """
    record: dict[str, object]
    if value is DELETE:
        record = {"op": "delete", "space": space, "key": key}
    else:
        record = {"op": "put", "space": space, "key": key, "value": value}
    if txn is not None:
        record["txn"] = txn
    return _ENCODER.encode(record).encode()


def commit_record(txn: int) -> bytes:
    """The commit marker of operation ``txn``."""
    return _ENCODER.encode({"op": "commit", "txn": txn}).encode()


class Shard:
    """One journaled partition of a store.

    Args:
        directory: the shard's directory (``wal.log``, ``snapshot.json``
            and the backend's data file live here).
        backend: backend name — ``"memory"`` or ``"sqlite"``.
    """

    def __init__(self, directory: str | Path, *, backend: str = "memory") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.backend_kind = backend
        self.wal = WriteAheadLog(self.directory / "wal.log")
        self.backend: KVBackend = make_backend(backend, self.directory / "data.db")

    @property
    def snapshot_path(self) -> Path:
        """Where this shard's snapshot file lives."""
        return self.directory / "snapshot.json"

    # ------------------------------------------------------------------
    # Mutation (the store journals first, then applies)
    # ------------------------------------------------------------------
    def apply(self, ops: list[tuple[str, str, object]]) -> None:
        """Apply ``(space, key, value)`` upserts — :data:`DELETE` removes —
        to the backend, once the store has journaled them.

        The memory backend keeps ``value`` itself, so the caller must not
        mutate it afterwards (the parties journal immutable strings).
        """
        backend = self.backend
        for space, key, value in ops:
            if value is DELETE:
                backend.delete(space, key)
            else:
                backend.put(space, key, value)

    def dump(self) -> dict[str, dict[str, object]]:
        """The shard's whole logical state: ``{space: {key: value}}``."""
        return {space: dict(self.backend.items(space)) for space in self.backend.spaces()}

    # ------------------------------------------------------------------
    # Recovery / compaction
    # ------------------------------------------------------------------
    def load_base(self) -> tuple[int, list[dict[str, object]]]:
        """Clear the backend, load the snapshot, read the healed WAL.

        Returns:
            ``(snapshot record count, decoded journal operations)`` —
            the operations are *not* applied yet; the caller filters
            them by commit status first.
        """
        self.backend.clear()
        snapshot_records = self._load_snapshot()
        ops = [
            json.loads(payload.decode("utf-8")) for payload in self.wal.replay()
        ]
        return snapshot_records, ops

    def apply_ops(
        self, ops: list[dict[str, object]], committed: set[int]
    ) -> tuple[int, int]:
        """Apply decoded journal operations, honoring commit markers.

        Returns:
            ``(applied, discarded)`` record counts; commit markers
            themselves count as neither.
        """
        applied = 0
        discarded = 0
        for op in ops:
            if op.get("op") == "commit":
                continue
            txn = op.get("txn")
            if txn is not None and int(txn) not in committed:  # type: ignore[call-overload]
                discarded += 1
                continue
            self._apply(op)
            applied += 1
        self.backend.flush()
        return applied, discarded

    def write_snapshot(self) -> None:
        """Write an atomic snapshot of current state, leaving the WAL alone.

        The store snapshots *every* shard before resetting *any* WAL —
        commit markers must outlive all journal records they commit,
        even across shards.

        Raises:
            StoreIOError: writing, fsyncing or replacing the file failed.
        """
        payload = json.dumps(
            {"version": SNAPSHOT_VERSION, "spaces": self.dump()},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        write_atomically(self.snapshot_path, payload)

    def verify(self) -> list[str]:
        """Check snapshot parseability and WAL integrity without mutating."""
        problems = [f"wal.log: {issue}" for issue in self.wal.verify()]
        if self.snapshot_path.exists():
            try:
                document = json.loads(self.snapshot_path.read_text("utf-8"))
            except (ValueError, OSError) as error:
                problems.append(f"snapshot.json: unreadable ({error})")
            else:
                if document.get("version") != SNAPSHOT_VERSION:
                    problems.append(
                        f"snapshot.json: version {document.get('version')!r} "
                        f"(expected {SNAPSHOT_VERSION})"
                    )
        return problems

    def flush(self) -> None:
        """Fsync the WAL and commit the backend."""
        self.wal.flush()
        self.backend.flush()

    def close(self) -> None:
        """Release file handles (the store flushes first while it is healthy)."""
        self.wal.close()
        self.backend.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _load_snapshot(self) -> int:
        if not self.snapshot_path.exists():
            return 0
        try:
            document = json.loads(self.snapshot_path.read_text("utf-8"))
        except ValueError as error:
            raise StoreCorruptError(
                f"{self.snapshot_path}: snapshot is not valid JSON ({error})"
            ) from error
        if document.get("version") != SNAPSHOT_VERSION:
            raise StoreCorruptError(
                f"{self.snapshot_path}: snapshot version "
                f"{document.get('version')!r} (expected {SNAPSHOT_VERSION})"
            )
        count = 0
        for space, table in document["spaces"].items():
            for key, value in table.items():
                self.backend.put(space, key, value)
                count += 1
        return count

    def _apply(self, operation: dict[str, object]) -> None:
        op = operation.get("op")
        space = str(operation["space"])
        key = str(operation["key"])
        if op == "put":
            self.backend.put(space, key, operation["value"])
        elif op == "delete":
            self.backend.delete(space, key)
        else:
            raise StoreCorruptError(f"unknown journal operation {op!r}")


__all__ = [
    "DELETE",
    "RecoveryStats",
    "SNAPSHOT_VERSION",
    "Shard",
    "commit_record",
    "committed_txns",
    "journal_record",
    "write_atomically",
]
