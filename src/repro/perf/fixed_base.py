"""Fixed-base exponentiation: which bases get a precomputed table, and when.

Every protocol round is dominated by 1024-bit modular exponentiations over
a handful of *fixed* bases — the group generators ``g``, ``g1``, ``g2``,
the broker's keys, ``z = F(info)`` and the witness keys — with 160-bit
exponents. The table itself is a bigint-backend primitive,
:data:`repro.crypto.backend.FixedBaseTable`: every power of the base at
every ``window``-bit digit position of the exponent, so ``base^e`` is one
multiplication per non-zero digit (``int`` rows under python, ``mpz_t``s
in GMP memory under gmp). This module decides which bases earn one.

Tables are *registered* cheaply and *built* lazily: a base becomes a
candidate via :func:`register` and only gets its table once it has been
exponentiated :data:`BUILD_THRESHOLD` times, so one-shot bases never pay
the precomputation. A table is built on the serving path, inside the
protocol operation that makes its base's third counted use. Set-up work
counts none: key derivation (``SchnorrKeyPair.generate``,
``PartiallyBlindSigner``) computes each public key with one
:func:`repro.crypto.backend.powmod` and registers it, and the witness
table is signed under :func:`untabled`, so a daemon holds no table when
it first answers. At the default 8-bit window a 1024/160-bit table is
20 rows of 255 entries (717 KB in GMP memory) and builds in ~12 ms; a
daemon builds about ten on its first operations. Built tables live in a
bounded LRU registry; one evicted, or dropped on a backend switch, frees
its rows when its last walker lets go of it, and a dropped table's base
is a candidate again. The registry is safe to share between threads: a
table enters it only after it is built, and two threads promoting the
same base may each build one.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Any, Iterator

from repro import obs
from repro.crypto import backend

#: Number of times a registered base is exponentiated the slow way before
#: its table is built (the build costs ~2^window multiplications per
#: exponent digit, so it must amortize over repeated use).
BUILD_THRESHOLD = 3

#: Maximum number of built tables kept alive (LRU eviction beyond this).
MAX_TABLES = 48

#: Maximum number of not-yet-built candidates tracked (oldest dropped).
MAX_CANDIDATES = 4096

_lock = threading.Lock()
_tables: OrderedDict[tuple[int, int], Any] = OrderedDict()
_candidates: dict[tuple[int, int], tuple[int, int]] = {}  # key -> (q, uses)
_setup = threading.local()  # .depth > 0 inside untabled()


def register(base: int, p: int, q: int) -> None:
    """Mark ``(base, p, q)`` as a fixed base worth tabulating.

    Registration is a dictionary write; the table itself is built on the
    :data:`BUILD_THRESHOLD`-th :func:`fpow` call for the base.
    """
    key = (base % p, p)
    with _lock:
        if key not in _tables and key not in _candidates:
            _candidates[key] = (q, 0)
            while len(_candidates) > MAX_CANDIDATES:
                _candidates.pop(next(iter(_candidates)))


def table_for(base: int, p: int) -> Any | None:
    """Return the built table for ``(base, p)``, or ``None``."""
    key = (base % p, p)
    with _lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
    return table


def _publish(key: tuple[int, int], table: Any) -> Any:
    """Enter a built table into the LRU (or keep one another thread entered)."""
    with _lock:
        table = _tables.setdefault(key, table)
        _tables.move_to_end(key)
        while len(_tables) > MAX_TABLES:
            _tables.popitem(last=False)
    return table


def touch(base: int, p: int) -> Any | None:
    """Look up the table for ``(base, p)``, counting use toward promotion.

    Every exponentiation site (plain :func:`fpow` and
    :func:`~repro.perf.multiexp.multi_exp` alike) goes through here, so a
    registered candidate's usage is counted no matter which equation shape
    exercises it; on the :data:`BUILD_THRESHOLD`-th use the table is built
    and returned.
    """
    key = (base % p, p)
    with _lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
        elif getattr(_setup, "depth", 0):
            return None
        else:
            candidate = _candidates.get(key)
            if candidate is None:
                return None
            q, uses = candidate
            if uses + 1 < BUILD_THRESHOLD:
                _candidates[key] = (q, uses + 1)
                return None
            del _candidates[key]
    if table is None:
        table = _publish(key, backend.FixedBaseTable(base, p, q))
    obs.counter_inc("perf_fixed_base_hits_total")
    return table


@contextlib.contextmanager
def untabled() -> Iterator[None]:
    """Set-up work in this thread neither counts a use nor builds a table.

    An exponentiation inside still walks a table that is already built;
    an untabled base goes to ``backend.powmod`` without moving toward
    promotion. For work a process does before it serves (publishing the
    witness table signs one entry per merchant with ``g``), so that its
    tables are built by the protocol operations that use them.
    """
    _setup.depth = getattr(_setup, "depth", 0) + 1
    try:
        yield
    finally:
        _setup.depth -= 1


def fpow(base: int, exponent: int, p: int, q: int) -> int:
    """``base^(exponent mod q) mod p``, through a table when one exists.

    Unregistered bases fall back to ``backend.powmod``; registered bases
    are promoted to a table once they have been used often enough for the
    precomputation to amortize.
    """
    table = touch(base, p)
    if table is not None:
        return table.pow(exponent)
    return backend.powmod(base, exponent % q, p)


def build(base: int, p: int, q: int) -> Any:
    """Build (or fetch) the table for ``(base, p, q)`` immediately.

    Bypasses the :data:`BUILD_THRESHOLD` promotion dance, so a benchmark
    can time a warm table from its first call.
    """
    key = (base % p, p)
    table = table_for(base, p)
    if table is None:
        with _lock:
            _candidates.pop(key, None)
        table = _publish(key, backend.FixedBaseTable(base, p, q))
    return table


def table_count() -> int:
    """Number of built tables currently held."""
    return len(_tables)


def reset() -> None:
    """Drop every built table and use count (tests and benchmarks).

    Every base registered so far stays a candidate with zero uses, so the
    promoted bases come back on their next few uses: a group validates,
    and so registers its generators, only once per object. It also runs on
    a bigint-backend switch, because a table's rows belong to the backend
    that built them and :func:`repro.crypto.backend.table_product` walks
    only the active backend's.
    """
    with _lock:
        for key, table in _tables.items():
            _candidates[key] = (table.q, 0)
        _tables.clear()
        for key, (q, _uses) in _candidates.items():
            _candidates[key] = (q, 0)


backend.on_change(lambda _name: reset())


__all__ = [
    "BUILD_THRESHOLD",
    "MAX_CANDIDATES",
    "MAX_TABLES",
    "build",
    "fpow",
    "register",
    "reset",
    "table_count",
    "table_for",
    "touch",
    "untabled",
]
