"""Pluggable bigint backend: CPython ``pow``, the system's libgmp, or gmpy2.

Every hot path in the system bottoms out in 1024-bit modular arithmetic —
comb-table lookups, Straus multi-exponentiation chains, Miller-Rabin
witnesses, Fermat inversions. This module is the single switch point for
*how* that arithmetic executes:

* the **python** backend is the CPython builtin ``pow``/``%`` machinery —
  the reference implementation, always available;
* the **gmp** backend calls ``mpz_powm`` in the system's ``libgmp.so.10``
  through :mod:`ctypes` — nothing to install (gcc and apt's gnutls depend
  on the library), one foreign call per exponentiation, ~57 us against
  ~615 us for builtin ``pow`` at 1024/160 bits. Operands stay plain
  ``int``; only :func:`powmod` changes;
* the **gmpy2** backend routes the same operations through GMP limbs
  (``gmpy2.powmod``, ``mpz`` operands), and is selected only when the
  optional ``gmpy2`` package is importable.

All three compute the *same function*: results are plain ``int``
values, bit-identical between backends, so protocol outputs, wire bytes
and the Table 1 logical-operation accounting are invariant under the
switch — only wall-clock time changes.

Selection: the ``REPRO_BACKEND`` environment variable. ``auto`` — the
default — picks gmpy2 when installed, else gmp when libgmp loads and its
self-test agrees with builtin ``pow``, else python; ``python``, ``gmp``
and ``gmpy2`` force a backend, the latter two falling back gracefully
to python when unavailable. :func:`set_backend` switches at runtime;
listeners registered through :func:`on_change` (the fixed-base table
registry) are notified so derived state never straddles two backends.

Hot loops do not call :func:`powmod` per multiplication — they
:func:`wrap` their operands once (``mpz`` under gmpy2, identity
otherwise) and use native ``*``/``%`` operators on the wrapped values,
then :func:`unwrap` the result back to ``int`` at the module boundary.
Under gmp there is no such loop to run: a foreign ``mpz_powm`` is cheaper
than a comb table of Python ints, which :func:`powmod_beats_tables`
tells the two modules that would otherwise build one.

``mpz_powm`` is not constant-time, and neither is the CPython ``pow`` it
replaces; ``mpz_powm_sec`` (79 us) is what a secret-exponent split would
cost.

Layering: this is a **leaf module** — it imports nothing from ``repro``,
so any layer (``repro.perf`` included) may import it without cycles.
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Any, Callable

#: Canonical backend names, in preference order for ``auto``.
BACKEND_GMPY2 = "gmpy2"
BACKEND_GMP = "gmp"
BACKEND_PYTHON = "python"

_gmpy2: Any
try:
    _gmpy2 = importlib.import_module("gmpy2")
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _gmpy2 = None

PowMod = Callable[[Any, int, int], int]


# ----------------------------------------------------------------------
# Backend implementations
# ----------------------------------------------------------------------


def _py_identity(value: int) -> Any:
    """Lift/lower for the python and gmp backends: plain ``int`` in, same out."""
    return value


def _py_powmod(base: Any, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` via the CPython builtin ``pow``."""
    return pow(base, exponent, modulus)


def _py_invert(value: int, modulus: int) -> int:
    """Modular inverse via builtin ``pow(value, -1, modulus)``.

    Raises:
        ZeroDivisionError: when ``value`` is not invertible (uniform
            error contract across all backends).
    """
    try:
        return pow(value, -1, modulus)
    except ValueError as error:
        raise ZeroDivisionError(f"{value} is not invertible modulo {modulus}") from error


def _gmpy2_wrap(value: int) -> Any:
    """Lift an ``int`` into a GMP ``mpz`` for native-limb hot loops."""
    return _gmpy2.mpz(value)


def _gmpy2_unwrap(value: Any) -> int:
    """Lower an ``mpz`` (or ``int``) back to a plain ``int``."""
    return int(value)


def _gmpy2_powmod(base: Any, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` via ``gmpy2.powmod``, as plain ``int``."""
    return int(_gmpy2.powmod(base, exponent, modulus))


def _gmpy2_invert(value: int, modulus: int) -> int:
    """Modular inverse via ``gmpy2.invert``, with the uniform error contract.

    Raises:
        ZeroDivisionError: when ``value`` is not invertible.
    """
    try:
        return int(_gmpy2.invert(value, modulus))
    except ZeroDivisionError:
        raise ZeroDivisionError(f"{value} is not invertible modulo {modulus}") from None


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


def _bind_libgmp() -> tuple[PowMod, str]:
    """Load libgmp and bind ``mpz_init/import/powm/export``.

    Returns the backend's ``powmod`` and the library's ``__gmp_version``.
    The only layout relied on is that an ``mpz_t`` is GMP's 16-byte
    ``{int _mp_alloc; int _mp_size; mp_limb_t *_mp_d;}``, which
    ``mpz_init`` fills in; integers cross as little-endian 64-bit words.

    Raises:
        ImportError, OSError, AttributeError: no ctypes in this build, no
            loadable library, or a library without the four symbols.
    """
    import ctypes
    import threading

    try:
        lib = ctypes.CDLL(_LIBGMP_SONAME)
    except OSError:
        import ctypes.util

        found = ctypes.util.find_library("gmp")
        if found is None:
            raise
        lib = ctypes.CDLL(found)

    class Mpz(ctypes.Structure):
        _fields_ = [
            ("_mp_alloc", ctypes.c_int),
            ("_mp_size", ctypes.c_int),
            ("_mp_d", ctypes.c_void_p),
        ]

    mpz_ptr = ctypes.POINTER(Mpz)
    size_t, c_int = ctypes.c_size_t, ctypes.c_int
    mpz_init = lib.__gmpz_init
    mpz_init.argtypes, mpz_init.restype = [mpz_ptr], None
    mpz_import = lib.__gmpz_import
    mpz_import.argtypes = [mpz_ptr, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p]
    mpz_import.restype = None
    mpz_powm = lib.__gmpz_powm
    mpz_powm.argtypes, mpz_powm.restype = [mpz_ptr] * 4, None
    mpz_export = lib.__gmpz_export
    mpz_export.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz_ptr
    ]
    mpz_export.restype = ctypes.c_void_p
    version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value or b""

    def new_mpz() -> Any:
        # byref keeps the structure alive; the limbs mpz_init/import
        # allocate are never cleared (3 + _MODULUS_SLOTS per thread).
        ref = ctypes.byref(Mpz())
        mpz_init(ref)
        return ref

    def load(ref: Any, value: int) -> int:
        """Import a non-negative ``value`` into ``ref``; returns its limb count."""
        limbs = (value.bit_length() + 63) >> 6
        mpz_import(ref, limbs, -1, 8, -1, 0, value.to_bytes(limbs << 3, "little"))
        return limbs

    class Operands(threading.local):
        """One thread's scratch ``mpz_t``s and imported moduli.

        The GIL is released around every foreign call and a thread switch
        can fall between ``mpz_import`` and ``mpz_powm``, so nothing a
        call writes to is shared between threads.
        """

        def __init__(self) -> None:
            count = size_t()
            #: modulus -> (its mpz, an export buffer of its size)
            moduli: dict[int, tuple[Any, Any]] = {}
            self.all = (new_mpz(), new_mpz(), new_mpz(), count, ctypes.byref(count), moduli)

    operands = Operands()
    from_bytes = int.from_bytes

    def import_modulus(moduli: dict[int, tuple[Any, Any]], modulus: int) -> tuple[Any, Any]:
        if len(moduli) < _MODULUS_SLOTS:
            ref = new_mpz()
        else:
            ref = moduli.pop(next(iter(moduli)))[0]
        slot = moduli[modulus] = (ref, ctypes.create_string_buffer(load(ref, modulus) << 3))
        return slot

    def powmod(base: Any, exponent: int, modulus: int) -> int:
        """``base^exponent mod modulus`` via ``mpz_powm``, as plain ``int``.

        ``mpz_powm`` aborts the process on a zero modulus and on a
        negative exponent without an inverse, so anything outside
        ``base >= 0, exponent >= 0, modulus > 0`` goes to builtin ``pow``
        and raises what it raises.
        """
        if base < 0 or exponent < 0 or modulus <= 0:
            return pow(base, exponent, modulus)
        base_ref, exponent_ref, out_ref, count, count_ref, moduli = operands.all
        modulus_ref, out = moduli.get(modulus) or import_modulus(moduli, modulus)
        load(base_ref, base)
        load(exponent_ref, exponent)
        mpz_powm(out_ref, base_ref, exponent_ref, modulus_ref)
        mpz_export(out, count_ref, -1, 8, -1, 0, out_ref)
        return from_bytes(out.raw[: count.value << 3], "little")

    return powmod, version.decode("ascii", "replace")


@functools.cache
def _libgmp() -> tuple[PowMod, str] | None:
    """The gmp backend's ``(powmod, version)``, or ``None`` if unusable here.

    A library that does not load, lacks a symbol or disagrees with
    builtin ``pow`` on :data:`_SELF_TEST` leaves the backend unavailable;
    the process carries on with python arithmetic.
    """
    try:
        bound = _bind_libgmp()
    except (ImportError, OSError, AttributeError):
        return None
    if any(bound[0](b, e, m) != pow(b, e, m) for b, e, m in _SELF_TEST):
        return None
    return bound


# ----------------------------------------------------------------------
# Active-backend state (module-level rebindable functions)
# ----------------------------------------------------------------------

#: ``base^exponent mod modulus`` as a plain ``int``. ``base`` may be a
#: wrapped value; ``exponent`` must already be reduced by the caller.
powmod: PowMod = _py_powmod

#: Modular inverse as a plain ``int``; raises ``ZeroDivisionError`` when
#: the value is not invertible (all backends, uniformly).
invert: Callable[[int, int], int] = _py_invert

#: Lift an ``int`` into the backend's native bigint type for hot loops.
wrap: Callable[[int], Any] = _py_identity

#: Lower a (possibly wrapped) value back to a plain ``int``.
unwrap: Callable[[Any], int] = _py_identity

_active = BACKEND_PYTHON
_listeners: list[Callable[[str], None]] = []

_WHY_UNAVAILABLE = {
    BACKEND_GMPY2: "gmpy2 is not installed",
    BACKEND_GMP: "libgmp did not load or failed its self-test",
}


def available() -> tuple[str, ...]:
    """Backends usable in this process, preference order first."""
    found = []
    if _gmpy2 is not None:
        found.append(BACKEND_GMPY2)
    if _libgmp() is not None:
        found.append(BACKEND_GMP)
    return (*found, BACKEND_PYTHON)


def name() -> str:
    """The active backend: ``"python"``, ``"gmp"`` or ``"gmpy2"``."""
    return _active


def gmp_version() -> str | None:
    """The GMP binding's version string, or ``None`` under python.

    gmpy2's own version when that backend is active, libgmp's
    ``__gmp_version`` under gmp. Recorded next to bench results and in
    ``admin/stats`` so two runs can be told apart by the arithmetic that
    produced them.
    """
    if _active == BACKEND_GMPY2:
        return str(_gmpy2.version())
    bound = _libgmp() if _active == BACKEND_GMP else None
    return bound[1] if bound is not None else None


def powmod_beats_tables() -> bool:
    """Whether one :func:`powmod` is cheaper than a Python-level table walk.

    True under gmp only: a foreign ``mpz_powm`` (~57 us at 1024/160 bits)
    undercuts a comb-table lookup over Python ints (~72 us, plus 50-60 ms
    and ~655 KB to build each table) and a Straus chain, so
    :mod:`repro.perf.fixed_base` builds no tables and
    :mod:`repro.perf.multiexp` multiplies plain powers. Under gmpy2 the
    tables hold ``mpz`` values and still win.
    """
    return _active == BACKEND_GMP


def on_change(listener: Callable[[str], None]) -> None:
    """Register a callback fired (with the new name) after every switch.

    Used by caches of backend-derived state — the fixed-base comb tables
    wrap their block matrices in the active backend's type, so they drop
    themselves on a switch rather than serve stale-typed entries.
    """
    _listeners.append(listener)


def set_backend(requested: str, strict: bool = True) -> str:
    """Activate a backend by name; returns the name actually activated.

    Args:
        requested: ``"python"``, ``"gmp"``, ``"gmpy2"`` or ``"auto"``
            (the first of gmpy2, gmp, python that is usable here).
        strict: when ``True``, asking for a backend this process cannot
            run raises; when ``False`` (the environment-variable path)
            it falls back to python silently.

    Raises:
        ValueError: unknown backend name.
        RuntimeError: ``strict`` and the backend is unavailable (gmpy2 not
            importable; libgmp not loadable or failing its self-test).
    """
    global powmod, invert, wrap, unwrap, _active
    choice = requested.strip().lower()
    if choice == "auto":
        choice = available()[0]
    if choice not in (BACKEND_PYTHON, BACKEND_GMP, BACKEND_GMPY2):
        raise ValueError(f"unknown bigint backend {requested!r}")
    # Forcing python asks nothing of available(): no ctypes, no dlopen.
    if choice != BACKEND_PYTHON and choice not in available():
        if strict:
            raise RuntimeError(f"{choice} backend requested but {_WHY_UNAVAILABLE[choice]}")
        choice = BACKEND_PYTHON
    if choice == _active:
        return _active
    if choice == BACKEND_GMPY2:
        powmod, invert, wrap, unwrap = (
            _gmpy2_powmod,
            _gmpy2_invert,
            _gmpy2_wrap,
            _gmpy2_unwrap,
        )
    else:
        # gmp replaces powmod alone: operands stay plain ints.
        bound = _libgmp() if choice == BACKEND_GMP else None
        powmod = bound[0] if bound is not None else _py_powmod
        invert, wrap, unwrap = _py_invert, _py_identity, _py_identity
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
    "BACKEND_GMPY2",
    "BACKEND_PYTHON",
    "available",
    "gmp_version",
    "invert",
    "name",
    "on_change",
    "powmod",
    "powmod_beats_tables",
    "set_backend",
    "unwrap",
    "wrap",
]
