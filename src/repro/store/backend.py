"""Materialized key/value backends behind one small protocol.

A backend is a *cache of the journal*, never the source of truth: the
:class:`~repro.store.shard.Shard` recovery path clears the backend and
rebuilds it from snapshot + WAL on every open. That inversion is what
makes recovery byte-identical across backends — the logical state is a
function of the journal alone, and a backend only has to answer reads
fast between recoveries.

Two implementations ship:

* :class:`MemoryBackend` — plain nested dicts holding the values as
  the journal decoded them: what every daemon's store uses (the WAL and
  the snapshot are its durable state), and what simulations and tests
  use;
* :class:`SQLiteBackend` — one ``kv`` table per shard file, which no
  daemon opens; the in-process store benchmark and the cross-backend
  chaos scenario still build it. Because the WAL already carries
  durability, SQLite runs with ``synchronous=OFF`` — losing its
  buffered pages in a crash is fine, recovery rebuilds them.

Keys live in *spaces* (``"deposits"``, ``"merchants"``, ...), so one
backend file holds every table of a shard.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Protocol


class KVBackend(Protocol):
    """What a shard needs from its materialized state.

    Values are JSON values (``str``, numbers, lists, dicts ...) as the
    shard was given them; a backend that keeps bytes encodes them itself.
    Implementations must make ``put``/``delete`` idempotent (recovery
    replays journaled operations that may already be applied).
    """

    def get(self, space: str, key: str) -> object | None:
        """Return the value at ``(space, key)``, or ``None``."""
        ...

    def put(self, space: str, key: str, value: object) -> None:
        """Insert or overwrite the value at ``(space, key)``."""
        ...

    def delete(self, space: str, key: str) -> None:
        """Remove ``(space, key)`` if present (no error when absent)."""
        ...

    def items(self, space: str) -> Iterator[tuple[str, object]]:
        """Iterate ``(key, value)`` pairs of one space, key-sorted."""
        ...

    def spaces(self) -> list[str]:
        """All non-empty space names, sorted."""
        ...

    def clear(self) -> None:
        """Drop every space — recovery rebuilds from the journal."""
        ...

    def flush(self) -> None:
        """Persist buffered writes (no-op for memory)."""
        ...

    def close(self) -> None:
        """Release resources; the backend must not be used afterwards."""
        ...


class MemoryBackend:
    """Nested-dict backend for daemons and simulations: fast, volatile, ordered."""

    def __init__(self) -> None:
        self._spaces: dict[str, dict[str, object]] = {}

    def get(self, space: str, key: str) -> object | None:
        """Return the value at ``(space, key)``, or ``None``."""
        table = self._spaces.get(space)
        return None if table is None else table.get(key)

    def put(self, space: str, key: str, value: object) -> None:
        """Insert or overwrite the value at ``(space, key)``."""
        self._spaces.setdefault(space, {})[key] = value

    def delete(self, space: str, key: str) -> None:
        """Remove ``(space, key)`` if present (no error when absent)."""
        table = self._spaces.get(space)
        if table is not None:
            table.pop(key, None)
            if not table:
                del self._spaces[space]

    def items(self, space: str) -> Iterator[tuple[str, object]]:
        """Iterate ``(key, value)`` pairs of one space, key-sorted."""
        table = self._spaces.get(space, {})
        for key in sorted(table):
            yield key, table[key]

    def spaces(self) -> list[str]:
        """All non-empty space names, sorted."""
        return sorted(name for name, table in self._spaces.items() if table)

    def clear(self) -> None:
        """Drop every space — recovery rebuilds from the journal."""
        self._spaces.clear()

    def flush(self) -> None:
        """Nothing buffered: memory is already 'persisted'."""

    def close(self) -> None:
        """Release the dicts so reuse after close fails loudly in tests."""
        self._spaces.clear()


class SQLiteBackend:
    """SQLite-file backend: one ``kv`` table, WAL-subordinate.

    Args:
        path: the database file (created on first use).

    The connection commits on :meth:`flush`/:meth:`close` only;
    ``synchronous=OFF`` is safe because the shard's write-ahead log is
    the durability anchor and recovery rebuilds this file from it.
    """

    def __init__(self, path: str | Path) -> None:
        # Imported where the one backend that needs it is built, so a
        # memory-backed store (sims, tests) never loads the sqlite module.
        import sqlite3

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " space TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " value BLOB NOT NULL,"
            " PRIMARY KEY (space, key))"
        )
        self._conn.commit()

    def get(self, space: str, key: str) -> object | None:
        """Return the value at ``(space, key)``, or ``None``."""
        row = self._conn.execute(
            "SELECT value FROM kv WHERE space = ? AND key = ?", (space, key)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, space: str, key: str, value: object) -> None:
        """Insert or overwrite the value at ``(space, key)``."""
        blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._conn.execute(
            "INSERT INTO kv (space, key, value) VALUES (?, ?, ?) "
            "ON CONFLICT (space, key) DO UPDATE SET value = excluded.value",
            (space, key, blob),
        )

    def delete(self, space: str, key: str) -> None:
        """Remove ``(space, key)`` if present (no error when absent)."""
        self._conn.execute(
            "DELETE FROM kv WHERE space = ? AND key = ?", (space, key)
        )

    def items(self, space: str) -> Iterator[tuple[str, object]]:
        """Iterate ``(key, value)`` pairs of one space, key-sorted."""
        rows = self._conn.execute(
            "SELECT key, value FROM kv WHERE space = ? ORDER BY key", (space,)
        )
        for key, value in rows:
            yield str(key), json.loads(value)

    def spaces(self) -> list[str]:
        """All non-empty space names, sorted."""
        rows = self._conn.execute("SELECT DISTINCT space FROM kv ORDER BY space")
        return [str(row[0]) for row in rows]

    def clear(self) -> None:
        """Drop every space — recovery rebuilds from the journal."""
        self._conn.execute("DELETE FROM kv")

    def flush(self) -> None:
        """Commit buffered writes to the database file."""
        self._conn.commit()

    def close(self) -> None:
        """Commit and close the connection."""
        self._conn.commit()
        self._conn.close()


#: Registry of backend factories by configuration name.
BACKENDS = ("memory", "sqlite")


def make_backend(kind: str, path: Path) -> KVBackend:
    """Instantiate a backend by name (``"memory"`` or ``"sqlite"``).

    ``path`` names the shard's data file; the memory backend ignores it.

    Raises:
        ValueError: unknown backend name.
    """
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return SQLiteBackend(path)
    raise ValueError(f"unknown store backend {kind!r} (expected one of {BACKENDS})")


__all__ = [
    "BACKENDS",
    "KVBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "make_backend",
]
