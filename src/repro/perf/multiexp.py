"""Simultaneous multi-exponentiation (Shamir's trick / Straus).

Verification equations are products of powers — ``g^rho y^omega``,
``g1^r1 g2^r2``, ``g^s X^{-e}`` — and computing each factor separately
repeats the work once per base. :func:`multi_exp` computes the whole
product in one pass: every base with a :mod:`~repro.perf.fixed_base`
table contributes one multiplication per non-zero exponent digit to a
single accumulator (:func:`repro.crypto.backend.table_product`: one chain
and one export for ``g^s·W^e`` under gmp), and the remaining bases share
a *single* squaring chain via Straus's interleaved windowed method, so
``k`` ad-hoc bases cost roughly ``160 + 52k`` multiplications instead of
``240k``.

The batched deposit check pushes this to its limit: one ``multi_exp``
over ``2n + 2`` bases verifies ``n`` representation equations at once.

Where :func:`repro.crypto.backend.straus_beats_powmod` does not hold (the
ctypes gmp backend), a shared chain of Python-level multiplications
costs more than one foreign ``powmod`` per base, so bases without a table
are taken one by one.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto import backend
from repro.perf import fixed_base

#: Straus window width in bits (16-entry per-base tables).
_WINDOW = 4


def multi_exp(p: int, q: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Return ``prod(base^exp for base, exp in pairs) mod p``.

    Exponents are reduced modulo ``q`` (all bases are assumed to lie in
    the order-``q`` subgroup). Bases with a built fixed-base table use it;
    the rest are combined with shared squarings or, under gmp, one
    ``powmod`` each.

    Raises:
        ValueError: on an empty ``pairs`` sequence — an accidental empty
            product is almost always a caller bug.
    """
    if not pairs:
        raise ValueError("multi_exp of an empty sequence (empty product bug?)")
    tabled: list[tuple[object, int]] = []
    loose: list[tuple[int, int]] = []
    for base, exponent in pairs:
        e = exponent % q
        if e == 0:
            continue
        table = fixed_base.touch(base, p)
        if table is not None:
            tabled.append((table, e))
        else:
            loose.append((base % p, e))
    out = backend.table_product(tabled)
    if not loose:
        return out
    if backend.straus_beats_powmod():
        return out * backend.unwrap(_straus(backend.wrap(p), loose)) % p
    for base, e in loose:
        out = out * backend.powmod(base, e, p) % p
    return out


def _straus(pw: object, pairs: list[tuple[int, int]]) -> object:
    """Interleaved fixed-window product over bases without tables.

    ``pw`` is the modulus already lifted into the active bigint backend;
    the per-base window tables and the accumulator live in the same type,
    so the shared squaring chain runs on native limbs end to end.
    """
    radix = 1 << _WINDOW
    tables: list[list[object]] = []
    max_bits = 0
    for base, exponent in pairs:
        bw = backend.wrap(base)
        row: list[object] = [1, bw]
        acc = bw
        for _ in range(radix - 2):
            acc = acc * bw % pw
            row.append(acc)
        tables.append(row)
        if exponent.bit_length() > max_bits:
            max_bits = exponent.bit_length()
    n_digits = (max_bits + _WINDOW - 1) // _WINDOW
    mask = radix - 1
    out = backend.wrap(1)
    started = False
    for position in range(n_digits - 1, -1, -1):
        if started:
            for _ in range(_WINDOW):
                out = out * out % pw
        shift = position * _WINDOW
        for (base, exponent), row in zip(pairs, tables):
            digit = (exponent >> shift) & mask
            if digit:
                out = out * row[digit] % pw
                started = True
    return out


__all__ = ["multi_exp"]
