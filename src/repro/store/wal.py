"""The write-ahead log: append-only, length-prefixed, CRC-checked.

Every mutation of a :class:`~repro.store.shard.Shard` is appended here
*before* it is applied to the backend (and long before any RPC reply is
sent), so a crash at any instant loses at most the mutations that were
never acknowledged. The file layout is deliberately trivial to parse
forwards and impossible to misparse silently:

```
offset  size  field
0       5     file magic  b"RWAL\\x01" (format version in the last byte)
--- then zero or more records, back to back ---
+0      4     payload length N   (big-endian unsigned)
+4      4     CRC32 of payload   (big-endian unsigned)
+8      N     payload bytes      (UTF-8 JSON operation)
```

An ``append`` writes its records (all of one store operation's records
on this shard, at the operation's commit) in one buffered write and
fsyncs them before it returns. The first :class:`OSError`
raises :class:`~repro.store.errors.StoreIOError` and fails the log:
every later write raises the same error, and nothing is retried (a
failed fsync may have dropped the dirty pages it was to write). A *torn
final record* (crash mid-append: short header, short payload, or a CRC
mismatch that runs to end-of-file) is healed by truncating back to the
last good record; it can only ever be an unacknowledged mutation. Damage
*before* the tail — a CRC mismatch with further bytes behind it — is not
healable and raises :class:`~repro.store.errors.StoreCorruptError`.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro import obs
from repro.store.errors import StoreCorruptError, StoreIOError

#: File magic: "RWAL" + one format-version byte.
MAGIC = b"RWAL\x01"

_HEADER = struct.Struct(">II")


@dataclass(frozen=True)
class WalScan:
    """Outcome of reading a WAL file front to back.

    ``torn_bytes`` counts trailing bytes that do not form a complete,
    checksummed record (zero on a cleanly closed log); ``problem`` names
    non-tail damage when present (the scan stops there).
    """

    payloads: tuple[bytes, ...]
    good_size: int
    torn_bytes: int
    problem: str | None


def scan_wal_bytes(data: bytes) -> WalScan:
    """Parse raw WAL bytes without touching any file.

    Shared by recovery (which truncates the torn tail) and ``verify``
    (which only reports). A file shorter than the magic is treated as a
    torn creation; a wrong magic is damage.
    """
    if len(data) < len(MAGIC):
        return WalScan(payloads=(), good_size=0, torn_bytes=len(data), problem=None)
    if data[: len(MAGIC)] != MAGIC:
        return WalScan(
            payloads=(), good_size=0, torn_bytes=0, problem="bad file magic"
        )
    payloads: list[bytes] = []
    offset = len(MAGIC)
    problem: str | None = None
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            break  # torn header at the tail
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > len(data):
            break  # torn payload at the tail
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            if end < len(data):
                problem = f"CRC mismatch at offset {offset} with data after it"
            break  # CRC-bad final record counts as torn
        payloads.append(payload)
        offset = end
    return WalScan(
        payloads=tuple(payloads),
        good_size=offset,
        torn_bytes=len(data) - offset,
        problem=problem,
    )


class WriteAheadLog:
    """One append-only journal file, fail-stop on the first IO error.

    Args:
        path: the log file (created with the magic header on first use).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.fsync_count = 0
        self.appended_records = 0
        self.truncated_bytes = 0
        #: The first IO failure; once set, every write raises it.
        self.failure: StoreIOError | None = None
        self._file: BinaryIO | None = None
        self._size = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Current durable-plus-buffered size of the log file."""
        if self._file is None and self.path.exists():
            return self.path.stat().st_size
        return self._size if self._file is not None else 0

    def append(self, *payloads: bytes) -> None:
        """Append checksummed records in one buffered write, then fsync them.

        A store operation hands each shard all of its records at commit,
        so the records of one operation reach a log in one write.

        Raises:
            StoreIOError: the write failed, now or earlier.
        """
        records = b"".join(
            _HEADER.pack(len(payload), zlib.crc32(payload)) + payload for payload in payloads
        )
        with self._io("append to"):
            self._open().write(records)
        self._size += len(records)
        self._pending += len(payloads)
        self.appended_records += len(payloads)
        self.flush()

    def flush(self) -> None:
        """Flush buffered records and fsync — the commit barrier.

        Raises:
            StoreIOError: the flush or fsync failed, now or earlier.
        """
        with self._io("fsync"):
            if self._file is None or self._pending == 0:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
        self._pending = 0
        self.fsync_count += 1
        obs.counter_inc("store_fsyncs_total")
        obs.gauge_set("store_wal_bytes", float(self._size))

    def reset(self) -> None:
        """Truncate to an empty (header-only) log, after a snapshot.

        Raises:
            StoreIOError: the truncate failed, now or earlier.
        """
        with self._io("reset"):
            handle = self._open()
            handle.seek(0)
            handle.truncate(0)
            handle.write(MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
        self._size = len(MAGIC)
        self._pending = 0
        self.fsync_count += 1
        obs.counter_inc("store_fsyncs_total")
        obs.gauge_set("store_wal_bytes", float(self._size))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def replay(self) -> list[bytes]:
        """Read every intact record; heal (truncate) a torn tail.

        The log stays open at its healed end, so the first append after a
        recovery writes there without reading the file a second time.

        Returns:
            The record payloads, oldest first.

        Raises:
            StoreCorruptError: damage before the tail (unhealable).
            StoreIOError: truncating the torn tail failed.
        """
        self.close()
        if not self.path.exists():
            return []
        return list(self._open_and_scan()[1])

    def verify(self) -> list[str]:
        """Scan without modifying anything; return problem descriptions.

        A torn tail is reported (it would be healed by recovery) but so
        is unhealable corruption; an intact log returns ``[]``.
        """
        if not self.path.exists():
            return []
        scanned = scan_wal_bytes(self.path.read_bytes())
        problems: list[str] = []
        if scanned.problem is not None:
            problems.append(f"corrupt: {scanned.problem}")
        elif scanned.torn_bytes:
            problems.append(
                f"torn tail: {scanned.torn_bytes} trailing byte(s) "
                "(recovery will truncate)"
            )
        return problems

    def close(self) -> None:
        """Release the file handle; nothing is fsynced here.

        A record is durable once :meth:`flush` returned; what a failed log
        still buffers is what the disk refused.
        """
        if self._file is not None:
            handle, self._file = self._file, None
            with contextlib.suppress(OSError):
                handle.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _io(self, action: str) -> Iterator[None]:
        """Raise the log's earlier failure, or make this block's first
        :class:`OSError` the failure every later write raises."""
        if self.failure is not None:
            raise self.failure
        try:
            yield
        except OSError as error:
            self.failure = StoreIOError(f"{action} {self.path.name} failed: {error}")
            raise self.failure from error

    def _open(self) -> BinaryIO:
        if self._file is not None:
            return self._file
        return self._open_and_scan()[0]

    def _open_and_scan(self) -> tuple[BinaryIO, tuple[bytes, ...]]:
        """Open the log at its end for appending; return it and its intact records."""
        payloads: tuple[bytes, ...] = ()
        with self._io("open"):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle: BinaryIO
            if not self.path.exists() or self.path.stat().st_size == 0:
                handle = open(self.path, "w+b")
                handle.write(MAGIC)
                handle.flush()
            else:
                # A pre-existing file may end in a torn record (crash during
                # a previous life). Appending after damaged bytes would turn
                # a healable torn tail into unhealable mid-file corruption,
                # so validate and truncate to the last good record first.
                scanned = scan_wal_bytes(self.path.read_bytes())
                if scanned.problem is not None:
                    raise StoreCorruptError(f"{self.path}: {scanned.problem}")
                payloads = scanned.payloads
                handle = open(self.path, "r+b")
                if scanned.torn_bytes:
                    self.truncated_bytes += scanned.torn_bytes
                    obs.counter_inc("store_wal_torn_bytes_total", scanned.torn_bytes)
                    handle.truncate(scanned.good_size)
                    if scanned.good_size == 0:
                        # Torn creation: shorter than the magic itself.
                        handle.write(MAGIC)
                    handle.flush()
                    os.fsync(handle.fileno())
                handle.seek(0, os.SEEK_END)
        self._file = handle
        self._size = handle.tell()
        self._pending = 0
        return handle, payloads


__all__ = ["MAGIC", "WalScan", "WriteAheadLog", "scan_wal_bytes"]
