"""Products of powers over fixed-base tables.

Verification equations are products of powers — ``g^rho y^omega``,
``g1^r1 g2^r2``, ``g^s X^{-e}`` — and computing each factor separately
repeats the work once per base. :func:`multi_exp` computes the tabled
part of the product in one pass: every base with a
:mod:`~repro.perf.fixed_base` table contributes one multiplication per
non-zero exponent digit to a single accumulator
(:func:`repro.crypto.backend.table_product`: one chain and one export for
``g^s·W^e`` under gmp). Each remaining base costs one
:func:`repro.crypto.backend.powmod`.

The batched deposit check pushes this to its limit: one ``multi_exp``
over ``2n + 2`` bases verifies ``n`` representation equations at once.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto import backend
from repro.perf import fixed_base


def multi_exp(p: int, q: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Return ``prod(base^exp for base, exp in pairs) mod p``.

    Exponents are reduced modulo ``q`` (all bases are assumed to lie in
    the order-``q`` subgroup). Bases with a built fixed-base table share
    one table walk; the rest take one ``powmod`` each.

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
    for base, e in loose:
        out = out * backend.powmod(base, e, p) % p
    return out


__all__ = ["multi_exp"]
