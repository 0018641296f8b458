"""Typed failures of the durable-storage subsystem.

The store fails stop. The first :class:`OSError` of a write, fsync,
truncate or replace raises :class:`StoreIOError` and poisons the store:
every later mutation raises the same error, because memory may already
hold what the disk does not (a failed fsync may have dropped the dirty
pages, so a second fsync proves nothing). Nothing is retried; the owner
shuts down and its next life recovers only what the disk holds. A
:class:`StoreCorruptError` means the on-disk journal or snapshot is
structurally damaged beyond the torn-tail case recovery heals, and an
operator has to intervene.
"""

from __future__ import annotations


class StoreError(Exception):
    """Base class for every durable-storage failure."""


class StoreIOError(StoreError):
    """A filesystem write failed; the store refuses every later mutation."""


class StoreCorruptError(StoreError):
    """The journal or snapshot is structurally damaged (not a torn tail)."""


__all__ = ["StoreCorruptError", "StoreError", "StoreIOError"]
