"""Bounded memoization caches for values many operations share.

A party checks each coin, transcript and commitment once, so a verdict
on one of them never repeats inside one process: memoizing it would
only store a key per coin. What does repeat is a value shared by many
coins: ``z = F(info)`` for the handful of public ``info`` values, a
signed witness-range entry that travels with every coin of its
merchant, the membership of a recurring verification key, a gossiped
directory. A :class:`MemoCache` stores such a value keyed by what it is
computed from, so the second and later uses are a dictionary lookup.

Caches are LRU-bounded (evicting cold entries caps memory) and count
their own hits and misses (:func:`hit_stats`, always on, so a daemon can
report them) as well as reporting them to :mod:`repro.obs` under
``perf_verify_cache_hits_total`` / ``perf_verify_cache_misses_total``
with a ``cache=<name>`` label.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

from repro import obs

#: Default per-cache entry bound.
DEFAULT_MAX_SIZE = 4096

_MISSING = object()


def _normalize(key: object) -> object:
    """Shrink long byte-string key components to their SHA-256 digest."""
    if isinstance(key, (bytes, bytearray)) and len(key) > 48:
        return hashlib.sha256(key).digest()
    if isinstance(key, tuple):
        return tuple(_normalize(part) for part in key)
    return key


class MemoCache:
    """One named, LRU-bounded memoization table."""

    __slots__ = ("name", "max_size", "_data", "hits", "misses")

    def __init__(self, name: str, max_size: int = DEFAULT_MAX_SIZE) -> None:
        self.name = name
        self.max_size = max_size
        self._data: OrderedDict[object, object] = OrderedDict()
        #: :func:`memoized` lookups that found / did not find their key.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: object) -> object:
        """Return the cached value or the module-private MISSING sentinel."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self._data.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> None:
        """Store a value, evicting the least-recently-used beyond the bound."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_size:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero the hit and miss counts."""
        self._data.clear()
        self.hits = self.misses = 0


_caches: dict[str, MemoCache] = {}


def cache(name: str, max_size: int = DEFAULT_MAX_SIZE) -> MemoCache:
    """Return (creating on first use) the named process-wide cache."""
    found = _caches.get(name)
    if found is None:
        found = _caches[name] = MemoCache(name, max_size)
    return found


def memoized(
    name: str,
    key: object,
    compute: Callable[[], object],
    on_hit: Callable[[], None] | None = None,
) -> object:
    """Return the cached value for ``key``, computing and storing on miss.

    Args:
        name: cache name (one :class:`MemoCache` per name).
        key: hashable key; long byte strings are digested automatically.
        compute: zero-argument callable producing the value on a miss.
        on_hit: optional callback run on a hit — the verification layer
            uses it to record the *logical* operation counts the skipped
            computation would have reported, keeping the paper's Table 1
            accounting identical whether or not the cache fires.
    """
    store = cache(name)
    key = _normalize(key)
    value = store.get(key)
    if value is not _MISSING:
        store.hits += 1
        obs.counter_inc("perf_verify_cache_hits_total", cache=name)
        if on_hit is not None:
            on_hit()
        return value
    store.misses += 1
    obs.counter_inc("perf_verify_cache_misses_total", cache=name)
    value = compute()
    store.put(key, value)
    return value


def stats() -> dict[str, int]:
    """Current entry count per named cache (for the metrics snapshot)."""
    return {name: len(store) for name, store in sorted(_caches.items())}


def hit_stats() -> dict[str, dict[str, int]]:
    """Hits and misses per named cache since it was created or cleared."""
    return {
        name: {"hits": store.hits, "misses": store.misses}
        for name, store in sorted(_caches.items())
    }


def reset() -> None:
    """Clear every named cache (tests and benchmarks)."""
    for store in _caches.values():
        store.clear()


__all__ = [
    "DEFAULT_MAX_SIZE",
    "MemoCache",
    "cache",
    "hit_stats",
    "memoized",
    "reset",
    "stats",
]
