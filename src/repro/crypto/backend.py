"""Bigint backend: CPython ``pow`` or the system's libgmp.

Every hot path in the system bottoms out in 1024-bit modular arithmetic —
fixed-base table walks, one exponentiation per base without a table,
Miller-Rabin witnesses. This module is the single switch point for *how*
that arithmetic executes:

* the **python** backend is the CPython builtin ``pow``/``%`` machinery —
  the reference implementation, always available;
* the **gmp** backend calls ``mpz_powm`` in the system's ``libgmp.so.10``
  through :mod:`ctypes` — nothing to install (gcc and apt's gnutls depend
  on the library), one foreign call per exponentiation, ~57 us against
  ~615 us for builtin ``pow`` at 1024/160 bits. Operands stay plain
  ``int``; only :func:`powmod` and the fixed-base table change.

Both compute the *same function*: results are plain ``int`` values,
bit-identical between backends, so protocol outputs, wire bytes and the
Table 1 logical-operation accounting are invariant under the switch —
only wall-clock time changes.

Selection: the ``REPRO_BACKEND`` environment variable, ``auto`` (the
default), ``gmp`` or ``python``. ``auto`` picks gmp when libgmp loads and
its self-test agrees with builtin ``pow``, else python; ``gmp`` forces
it, falling back to python when it is unavailable; any other value
selects python. :func:`set_backend` switches at runtime; listeners
registered through :func:`on_change` (the fixed-base table registry) are
notified so derived state never straddles two backends.

The fixed-base table is a backend primitive like :func:`powmod`:
:data:`FixedBaseTable` holds, for each ``window``-bit digit position of
the exponent, every power of one base at that position, and
:func:`table_product` multiplies one entry per non-zero digit of every
``(table, exponent)`` factor into one accumulator. Under python the rows
are ``int`` values walked with native ``*``/``%``; under gmp they are
``mpz_t``s in one ctypes block, built and walked with ``mpz_mul`` and
``mpz_tdiv_r``. Both backends' tables take 8-bit digits: at 1024/160 bits
a gmp table is 20 rows of 255 entries (717 KB), builds in ~12 ms and
walks in ~0.5 of one ``mpz_powm`` (20 digit steps). DESIGN §6b has the
window trade-off.

``mpz_powm`` is not constant-time, and neither is the CPython ``pow`` it
replaces or a table walk, whose multiplications skip zero digits;
``mpz_powm_sec`` (79 us) is what a secret-exponent split would cost.

Layering: this is a **leaf module** — it imports nothing from ``repro``,
so any layer (``repro.perf`` included) may import it without cycles.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, NamedTuple, Sequence

#: Canonical backend names, in preference order for ``auto``.
BACKEND_GMP = "gmp"
BACKEND_PYTHON = "python"

PowMod = Callable[[int, int, int], int]

#: ``prod(table.base ^ exponent)`` over ``(table, exponent)`` factors of one
#: modulus, as a plain ``int``.
TableProduct = Callable[[Sequence[tuple[Any, int]]], int]


# ----------------------------------------------------------------------
# Backend implementations
# ----------------------------------------------------------------------


def _py_powmod(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` via the CPython builtin ``pow``."""
    return pow(base, exponent, modulus)


def invert(value: int, modulus: int) -> int:
    """Modular inverse via builtin ``pow(value, -1, modulus)``, under every backend.

    Raises:
        ZeroDivisionError: when ``value`` is not invertible.
    """
    try:
        return pow(value, -1, modulus)
    except ValueError as error:
        raise ZeroDivisionError(f"{value} is not invertible modulo {modulus}") from error


def _check_table(p: int, q: int, window: int) -> None:
    """The arguments every backend's table refuses.

    Raises:
        ValueError: a window outside 1..16 bits, ``q <= 0`` or ``p <= 1``.
    """
    if not 1 <= window <= 16:
        raise ValueError("window must be between 1 and 16 bits")
    if q <= 0 or p <= 1:
        raise ValueError("p and q must be positive with p > 1")


class _PyTable:
    """Fixed-base table of ``int`` rows.

    ``rows[i][j] == base ** (j << (window * i))  (mod p)``, one row per
    ``window``-bit digit of an exponent in ``[0, q)``. ~20 Python-level multiplications per
    160-bit exponent against ~240 for square-and-multiply; building one
    costs ~5,000 (50-60 ms at 1024 bits under python).

    Args:
        base: the fixed base; reduced modulo ``p``.
        p: field modulus.
        q: exponent modulus (the subgroup order); exponents are reduced
            into ``[0, q)`` before lookup.
        window: digit width in bits (default 8: 256-entry rows).
    """

    __slots__ = ("base", "p", "q", "window", "_rows")

    def __init__(self, base: int, p: int, q: int, window: int = 8) -> None:
        _check_table(p, q, window)
        self.base = base % p
        self.p = p
        self.q = q
        self.window = window
        rows: list[list[int]] = []
        row_base = self.base
        for _ in range((q.bit_length() + window - 1) // window):
            row = [1, row_base]
            acc = row_base
            for _ in range((1 << window) - 2):
                acc = acc * row_base % p
                row.append(acc)
            rows.append(row)
            # base of the next row: this one raised to 2^window.
            for _ in range(window):
                row_base = row_base * row_base % p
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base^(exponent mod q) mod p`` via table lookups."""
        return _py_table_product(((self, exponent),))


def _py_table_product(factors: Sequence[tuple[Any, int]]) -> int:
    """``prod(table.base^(exponent mod table.q)) mod p`` over the factors.

    One native accumulator takes one multiplication per non-zero digit of
    every factor's exponent; ``1`` for no factors.
    """
    out = 1
    for table, exponent in factors:
        e = exponent % table.q
        rows, p, window = table._rows, table.p, table.window
        mask = (1 << window) - 1
        index = 0
        while e:
            digit = e & mask
            if digit:
                out = out * rows[index][digit] % p
            e >>= window
            index += 1
    return out


# ----------------------------------------------------------------------
# The gmp backend: ctypes on the system's libgmp
# ----------------------------------------------------------------------

#: The soname every GMP 5.x/6.x build installs. Loading by soname is one
#: ``dlopen``; ``ctypes.util.find_library`` forks ``ldconfig``/``gcc``
#: (~4 ms), so it is only the fallback.
_LIBGMP_SONAME = "libgmp.so.10"

#: Distinct moduli one thread keeps imported (a process sees ``p``, a few
#: ``q``-sized values and the 512-bit handshake group; Miller-Rabin over
#: fresh candidates recycles the oldest slot).
_MODULUS_SLOTS = 8

#: ``(base, exponent, modulus)`` triples the binding must agree with
#: builtin ``pow`` on before it is offered: one limb; several limbs with
#: ``base > modulus``; an even modulus; a zero result.
_SELF_TEST = (
    (3, 5, 7),
    ((1 << 200) + 12345, (1 << 70) - 3, (1 << 127) - 1),
    ((1 << 130) - 5, 65537, 1 << 96),
    (1 << 64, 3, 1 << 64),
)

class _Gmp(NamedTuple):
    """What :func:`_bind_libgmp` binds: the gmp backend's primitives."""

    powmod: PowMod
    version: str
    table: type
    table_product: TableProduct


def _bind_libgmp() -> _Gmp:
    """Load libgmp and bind ``mpz_init/import/export/powm/mul/tdiv_r``.

    Returns the backend's ``powmod``, the library's ``__gmp_version``, its
    table class and its :data:`table_product`. The only layout relied on
    is that an ``mpz_t`` is GMP's 16-byte ``{int _mp_alloc; int _mp_size;
    mp_limb_t *_mp_d;}``; integers cross as little-endian 64-bit words.

    Raises:
        ImportError, OSError, AttributeError: no ctypes in this build, no
            loadable library, or a library without the six symbols.
    """
    import ctypes
    import sys
    import threading

    path: str | None = _LIBGMP_SONAME
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        import ctypes.util

        path = ctypes.util.find_library("gmp")
        if path is None:
            raise
        lib = ctypes.CDLL(path)

    class Mpz(ctypes.Structure):
        _fields_ = [
            ("_mp_alloc", ctypes.c_int),
            ("_mp_size", ctypes.c_int),
            ("_mp_d", ctypes.c_void_p),
        ]

    # The calls that take a microsecond or two hold the GIL (``PyDLL``):
    # releasing and retaking it around each cost a walk about 5 %.
    # ``mpz_powm`` (50 us) releases it, so threads exponentiate in parallel.
    held = ctypes.PyDLL(path)
    # Every mpz_t crosses as its address, a plain int.
    mpz, size_t, c_int = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
    mpz_init = lib.__gmpz_init
    mpz_init.argtypes, mpz_init.restype = [mpz], None
    mpz_import = held.__gmpz_import
    mpz_import.argtypes = [mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p]
    mpz_import.restype = None
    mpz_powm = lib.__gmpz_powm
    mpz_powm.argtypes, mpz_powm.restype = [mpz] * 4, None
    mpz_mul = held.__gmpz_mul
    mpz_mul.argtypes, mpz_mul.restype = [mpz] * 3, None
    mpz_tdiv_r = held.__gmpz_tdiv_r
    mpz_tdiv_r.argtypes, mpz_tdiv_r.restype = [mpz] * 3, None
    mpz_export = held.__gmpz_export
    mpz_export.argtypes = [ctypes.c_void_p, mpz, c_int, size_t, c_int, size_t, mpz]
    mpz_export.restype = ctypes.c_void_p
    version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value or b""
    mpz_bytes = ctypes.sizeof(Mpz)

    def new_mpz(keep: list[Any]) -> int:
        # ``keep`` holds the structure; the limbs mpz_init/import allocate
        # are never cleared (3 + _MODULUS_SLOTS per thread).
        struct = Mpz()
        keep.append(struct)
        address = ctypes.addressof(struct)
        mpz_init(address)
        return address

    def load(address: int, value: int) -> int:
        """Import a non-negative ``value``; returns its limb count."""
        limbs = (value.bit_length() + 63) >> 6
        mpz_import(address, limbs, -1, 8, -1, 0, value.to_bytes(limbs << 3, "little"))
        return limbs

    class Operands(threading.local):
        """One thread's three scratch ``mpz_t``s and imported moduli.

        ``mpz_powm`` runs with the GIL released, and a thread switch can
        fall between any two foreign calls: nothing a call writes to is
        shared between threads, and a table's entries, written before the
        table is returned, are only ever read.
        """

        def __init__(self) -> None:
            count = size_t()
            self.keep: list[Any] = [count]
            #: modulus -> (its mpz, an export buffer of its size)
            moduli: dict[int, tuple[int, Any]] = {}
            scratch = (new_mpz(self.keep), new_mpz(self.keep), new_mpz(self.keep))
            self.all = (*scratch, count, ctypes.addressof(count), moduli)

        def modulus(self, modulus: int) -> tuple[int, Any]:
            moduli = self.all[-1]
            slot = moduli.get(modulus)
            if slot is None:
                if len(moduli) < _MODULUS_SLOTS:
                    address = new_mpz(self.keep)
                else:
                    address = moduli.pop(next(iter(moduli)))[0]
                buffer = ctypes.create_string_buffer(load(address, modulus) << 3)
                slot = moduli[modulus] = (address, buffer)
            return slot

    operands = Operands()
    from_bytes = int.from_bytes

    def powmod(base: int, exponent: int, modulus: int) -> int:
        """``base^exponent mod modulus`` via ``mpz_powm``, as plain ``int``.

        ``mpz_powm`` aborts the process on a zero modulus and on a
        negative exponent without an inverse, so anything outside
        ``base >= 0, exponent >= 0, modulus > 0`` goes to builtin ``pow``
        and raises what it raises.
        """
        if base < 0 or exponent < 0 or modulus <= 0:
            return pow(base, exponent, modulus)
        base_ref, exponent_ref, out_ref, count, count_ref, _ = operands.all
        modulus_ref, out = operands.modulus(modulus)
        load(base_ref, base)
        load(exponent_ref, exponent)
        mpz_powm(out_ref, base_ref, exponent_ref, modulus_ref)
        mpz_export(out, count_ref, -1, 8, -1, 0, out_ref)
        return from_bytes(out.raw[: count.value << 3], "little")

    class GmpTable:
        """Fixed-base table in GMP memory, entries as ``mpz_t``s.

        Entry ``(i, j)``, for ``j`` in ``1 .. 2^window - 1``, is
        ``base ** (j << (window * i))  (mod p)``. The whole table is one
        ctypes block — every entry's 16-byte header, then its limbs, each
        entry holding as many as ``p`` — so dropping the table frees all
        of it, and GMP never reallocates an entry: a remainder mod ``p``
        fits. Each entry is the previous one times the row's first,
        reduced (``mpz_mul`` + ``mpz_tdiv_r``); the next row's first is
        the last entry times the first.

        Args: as the python backend's table (``window`` defaults to 8).
        """

        __slots__ = ("base", "p", "q", "window", "_block", "_first", "_row_bytes")

        def __init__(self, base: int, p: int, q: int, window: int = 8) -> None:
            _check_table(p, q, window)
            self.base = base % p
            self.p = p
            self.q = q
            self.window = window
            per_row = (1 << window) - 1
            rows = (q.bit_length() + window - 1) // window
            count = rows * per_row
            limbs = (p.bit_length() + 63) >> 6
            block = (ctypes.c_uint64 * (count * (2 + limbs)))()
            first = ctypes.addressof(block)
            limbs_at = first + count * mpz_bytes
            # Headers: _mp_alloc = limbs, _mp_size = 0, _mp_d into the block.
            sizes = int.from_bytes(bytes(Mpz(limbs, 0))[:8], sys.byteorder)
            block[0 : 2 * count : 2] = [sizes] * count
            block[1 : 2 * count : 2] = range(limbs_at, limbs_at + count * limbs * 8, limbs * 8)
            product, _, imported = operands.all[:3]
            modulus_ref = operands.modulus(p)[0]
            load(imported, self.base)
            entry = first
            mpz_tdiv_r(entry, imported, modulus_ref)
            for row in range(rows):
                row_first = entry
                # This row's entries 2.., then the next row's first.
                for _ in range(per_row if row + 1 < rows else per_row - 1):
                    mpz_mul(product, entry, row_first)
                    entry += mpz_bytes
                    mpz_tdiv_r(entry, product, modulus_ref)
            self._block = block
            self._first = first
            self._row_bytes = per_row * mpz_bytes

        def pow(self, exponent: int) -> int:
            """Return ``base^(exponent mod q) mod p`` via table lookups."""
            return table_product(((self, exponent),))

    def table_product(factors: Sequence[tuple[Any, int]]) -> int:
        """One chain over every factor's digits, one export.

        Two scratch ``mpz_t``s take turns as the accumulator: it is
        multiplied by one entry per non-zero digit and reduced after
        every second product.
        """
        if not factors:
            return 1
        left, right, _, count, count_ref, _ = operands.all
        modulus_ref, out = operands.modulus(factors[0][0].p)
        acc = 0  # the accumulator's mpz, or 0 while it is 1
        unreduced = False
        for table, exponent in factors:
            e = exponent % table.q
            window = table.window
            mask = (1 << window) - 1
            row = table._first - mpz_bytes  # digit d of this row is row + d * 16
            step = table._row_bytes
            while e:
                digit = e & mask
                if digit:
                    entry = row + digit * mpz_bytes
                    if acc:
                        target = right if acc == left else left
                        mpz_mul(target, acc, entry)
                        acc = target
                        if unreduced:
                            target = right if acc == left else left
                            mpz_tdiv_r(target, acc, modulus_ref)
                            acc = target
                        unreduced = not unreduced
                    else:
                        acc = entry
                e >>= window
                row += step
        if not acc:
            return 1
        if unreduced:
            target = right if acc == left else left
            mpz_tdiv_r(target, acc, modulus_ref)
            acc = target
        mpz_export(out, count_ref, -1, 8, -1, 0, acc)
        return from_bytes(out.raw[: count.value << 3], "little")

    return _Gmp(powmod, version.decode("ascii", "replace"), GmpTable, table_product)


@functools.cache
def _libgmp() -> _Gmp | None:
    """The gmp backend's primitives, or ``None`` if unusable here.

    A library that does not load, lacks a symbol or disagrees with
    builtin ``pow`` on :data:`_SELF_TEST` — through ``mpz_powm`` and
    through a small table — leaves the backend unavailable; the process
    carries on with python arithmetic.
    """
    try:
        bound = _bind_libgmp()
    except (ImportError, OSError, AttributeError):
        return None
    for base, exponent, modulus in _SELF_TEST:
        expected = pow(base, exponent, modulus)
        table = bound.table(base, modulus, exponent + 1, window=2)
        if bound.powmod(base, exponent, modulus) != expected or table.pow(exponent) != expected:
            return None
    return bound


# ----------------------------------------------------------------------
# Active-backend state (module-level rebindable functions)
# ----------------------------------------------------------------------

#: ``base^exponent mod modulus`` as a plain ``int``; ``exponent`` must
#: already be reduced by the caller.
powmod: PowMod = _py_powmod

#: The active backend's fixed-base table class:
#: ``FixedBaseTable(base, p, q, window=...)``, whose ``pow(exponent)`` is
#: ``base^(exponent mod q) mod p``. A table serves the backend that built
#: it; :mod:`repro.perf.fixed_base` drops its tables on a switch.
FixedBaseTable: type = _PyTable

#: ``prod(table.base^(exponent mod table.q)) mod p`` over ``(table,
#: exponent)`` factors whose tables share one ``p`` and were built by the
#: active backend: one accumulator for every factor, ``1`` for none.
table_product: TableProduct = _py_table_product

_active = BACKEND_PYTHON
_listeners: list[Callable[[str], None]] = []


def available() -> tuple[str, ...]:
    """Backends usable in this process, preference order first."""
    if _libgmp() is not None:
        return (BACKEND_GMP, BACKEND_PYTHON)
    return (BACKEND_PYTHON,)


def name() -> str:
    """The active backend: ``"python"`` or ``"gmp"``."""
    return _active


def gmp_version() -> str | None:
    """libgmp's ``__gmp_version`` under gmp, or ``None`` under python.

    Recorded next to bench results and in ``admin/stats`` so two runs can
    be told apart by the arithmetic that produced them.
    """
    bound = _libgmp() if _active == BACKEND_GMP else None
    return bound.version if bound is not None else None


def on_change(listener: Callable[[str], None]) -> None:
    """Register a callback fired (with the new name) after every switch.

    Used by caches of backend-derived state — a fixed-base table holds
    the rows of the backend that built it (``int`` rows or GMP memory),
    so the registry drops its tables on a switch.
    """
    _listeners.append(listener)


def set_backend(requested: str, strict: bool = True) -> str:
    """Activate a backend by name; returns the name actually activated.

    Args:
        requested: ``"python"``, ``"gmp"`` or ``"auto"`` (gmp when it is
            usable here, else python).
        strict: when ``True``, asking for gmp where it cannot run raises;
            when ``False`` (the environment-variable path) it falls back
            to python silently.

    Raises:
        ValueError: unknown backend name.
        RuntimeError: ``strict`` and libgmp is not loadable or fails its
            self-test.
    """
    global powmod, FixedBaseTable, table_product, _active
    choice = requested.strip().lower()
    if choice == "auto":
        choice = available()[0]
    if choice not in (BACKEND_PYTHON, BACKEND_GMP):
        raise ValueError(f"unknown bigint backend {requested!r}")
    # Forcing python asks nothing of libgmp: no ctypes, no dlopen.
    bound = _libgmp() if choice == BACKEND_GMP else None
    if choice == BACKEND_GMP and bound is None:
        if strict:
            raise RuntimeError(
                "gmp backend requested but libgmp did not load or failed its self-test"
            )
        choice = BACKEND_PYTHON
    if choice == _active:
        return _active
    if bound is None:
        powmod, FixedBaseTable, table_product = _py_powmod, _PyTable, _py_table_product
    else:
        powmod, FixedBaseTable, table_product = bound.powmod, bound.table, bound.table_product
    _active = choice
    for listener in list(_listeners):
        listener(choice)
    return _active


def _init_from_env() -> None:
    requested = os.environ.get("REPRO_BACKEND", "auto").strip() or "auto"
    try:
        set_backend(requested, strict=False)
    except ValueError:
        # An unrecognized REPRO_BACKEND value must not take the whole
        # process down at import time; the reference backend always works.
        set_backend(BACKEND_PYTHON)


_init_from_env()


__all__ = [
    "BACKEND_GMP",
    "BACKEND_PYTHON",
    "FixedBaseTable",
    "available",
    "gmp_version",
    "invert",
    "name",
    "on_change",
    "powmod",
    "set_backend",
    "table_product",
]
