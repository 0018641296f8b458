"""Fixed-base exponentiation: comb/window precomputation tables.

Every protocol round is dominated by 1024-bit modular exponentiations over
a handful of *fixed* bases — the group generators ``g``, ``g1``, ``g2``
and the broker's blind-signature key ``y`` — with 160-bit exponents. A
:class:`FixedBaseTable` precomputes, for each ``window``-bit block of the
exponent, every multiple of the base at that block position::

    T[i][j] == base ** (j << (window * i))  (mod p)

after which ``base^e`` is the product of one table entry per non-zero
block of ``e``: about 20 Python-level modular multiplications for a
160-bit exponent with the default 8-bit window, versus ~240 for plain
square-and-multiply.

Tables are *registered* cheaply and *built* lazily: a base becomes a
candidate via :func:`register` (or on its first :func:`fpow` call) and
only gets its table — a few thousand multiplications — once it has been
exponentiated :data:`BUILD_THRESHOLD` times, so one-shot bases never pay
the precomputation. Built tables live in a bounded LRU registry.

All of that is for backends whose arithmetic runs at Python speed. Where
:func:`repro.crypto.backend.powmod_beats_tables` holds (the ctypes ``gmp``
backend) one foreign ``powmod`` is cheaper than the table walk, so
:func:`touch` yields no table, nothing is ever built and every
:func:`fpow` is a single ``backend.powmod``.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.crypto import backend

#: Number of times a registered base is exponentiated the slow way before
#: its table is built (the build costs ~2^window multiplications per
#: exponent block, so it must amortize over repeated use).
BUILD_THRESHOLD = 3

#: Maximum number of built tables kept alive (LRU eviction beyond this).
MAX_TABLES = 48

#: Maximum number of not-yet-built candidates tracked (oldest dropped).
MAX_CANDIDATES = 4096


class FixedBaseTable:
    """Precomputed powers of one ``(base, p, q)`` triple.

    Args:
        base: the fixed base (a group element of order dividing ``q``).
        p: field modulus.
        q: exponent modulus (the subgroup order); exponents are reduced
            into ``[0, q)`` before lookup.
        window: block width in bits (default 8: 256-entry blocks).
    """

    __slots__ = ("base", "p", "q", "window", "_blocks", "_pw")

    def __init__(self, base: int, p: int, q: int, window: int = 8) -> None:
        if not 1 <= window <= 16:
            raise ValueError("window must be between 1 and 16 bits")
        if q <= 0 or p <= 1:
            raise ValueError("p and q must be positive with p > 1")
        self.base = base % p
        self.p = p
        self.q = q
        self.window = window
        radix = 1 << window
        n_blocks = (q.bit_length() + window - 1) // window
        # The block matrix and the modulus are held in the active bigint
        # backend's native type (mpz under gmpy2, plain int otherwise) so
        # the table-build and lookup loops run entirely on native limbs;
        # pow() unwraps back to int at the boundary.
        pw = backend.wrap(p)
        blocks: list[list[object]] = []
        block_base = backend.wrap(self.base)
        for _ in range(n_blocks):
            row: list[object] = [1, block_base]
            acc = block_base
            for _ in range(radix - 2):
                acc = acc * block_base % pw
                row.append(acc)
            blocks.append(row)
            # base of the next block: this one raised to 2^window.
            for _ in range(window):
                block_base = block_base * block_base % pw
        self._blocks = blocks
        self._pw = pw

    def pow(self, exponent: int) -> int:
        """Return ``base^(exponent mod q) mod p`` via table lookups."""
        e = exponent % self.q
        pw = self._pw
        mask = (1 << self.window) - 1
        out = backend.wrap(1)
        index = 0
        while e:
            digit = e & mask
            if digit:
                out = out * self._blocks[index][digit] % pw
            e >>= self.window
            index += 1
        return backend.unwrap(out)


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------

_tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()
_candidates: dict[tuple[int, int], tuple[int, int]] = {}  # key -> (q, uses)


def register(base: int, p: int, q: int) -> None:
    """Mark ``(base, p, q)`` as a fixed base worth tabulating.

    Registration is a dictionary write; the table itself is built on the
    :data:`BUILD_THRESHOLD`-th :func:`fpow` call for the base.
    """
    key = (base % p, p)
    if key not in _tables and key not in _candidates:
        _candidates[key] = (q, 0)
        while len(_candidates) > MAX_CANDIDATES:
            _candidates.pop(next(iter(_candidates)))


def table_for(base: int, p: int) -> FixedBaseTable | None:
    """Return the built table for ``(base, p)``, or ``None``."""
    table = _tables.get((base % p, p))
    if table is not None:
        _tables.move_to_end((base % p, p))
    return table


def touch(base: int, p: int) -> FixedBaseTable | None:
    """Look up the table for ``(base, p)``, counting use toward promotion.

    Every exponentiation site (plain :func:`fpow` and
    :func:`~repro.perf.multiexp.multi_exp` alike) goes through here, so a
    registered candidate's usage is counted no matter which equation shape
    exercises it; on the :data:`BUILD_THRESHOLD`-th use the table is built
    and returned. Always ``None`` when the backend's ``powmod`` beats a
    table.
    """
    if backend.powmod_beats_tables():
        return None
    key = (base % p, p)
    table = _tables.get(key)
    if table is not None:
        _tables.move_to_end(key)
        obs.counter_inc("perf_fixed_base_hits_total")
        return table
    candidate = _candidates.get(key)
    if candidate is None:
        return None
    cand_q, uses = candidate
    if uses + 1 < BUILD_THRESHOLD:
        _candidates[key] = (cand_q, uses + 1)
        return None
    del _candidates[key]
    table = FixedBaseTable(base, p, cand_q)
    _tables[key] = table
    while len(_tables) > MAX_TABLES:
        _tables.popitem(last=False)
    obs.counter_inc("perf_fixed_base_hits_total")
    return table


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


def build(base: int, p: int, q: int) -> FixedBaseTable | None:
    """Build (or fetch) the table for ``(base, p, q)`` immediately.

    Bypasses the :data:`BUILD_THRESHOLD` promotion dance, so a benchmark
    can time a warm table from its first call. Builds nothing and returns
    ``None`` when the backend's ``powmod`` beats a table: :func:`fpow`
    would never consult it.
    """
    if backend.powmod_beats_tables():
        return None
    key = (base % p, p)
    table = _tables.get(key)
    if table is None:
        _candidates.pop(key, None)
        table = FixedBaseTable(base, p, q)
        _tables[key] = table
        while len(_tables) > MAX_TABLES:
            _tables.popitem(last=False)
    else:
        _tables.move_to_end(key)
    return table


def table_count() -> int:
    """Number of built tables currently held."""
    return len(_tables)


def reset() -> None:
    """Drop every table and registration (tests and benchmarks)."""
    _tables.clear()
    _candidates.clear()


def _on_backend_change(_name: str) -> None:
    """Drop built tables on a bigint-backend switch.

    Block matrices are stored in the previous backend's native type;
    mixed-type arithmetic would still be *correct* (mpz and int
    interoperate), but rebuilt tables keep the hot loops homogeneous —
    and cheap registrations survive, so the promoted bases come back on
    their next few uses.
    """
    _tables.clear()


backend.on_change(_on_backend_change)


__all__ = [
    "BUILD_THRESHOLD",
    "MAX_CANDIDATES",
    "MAX_TABLES",
    "FixedBaseTable",
    "build",
    "fpow",
    "register",
    "reset",
    "table_count",
    "table_for",
    "touch",
]
