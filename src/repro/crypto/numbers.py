"""Modular-arithmetic helpers and primality testing.

Every number-theoretic building block the protocols need (Miller-Rabin,
modular inverse, random scalars, DSA-style parameter generation) lives
here; the Miller-Rabin exponentiations dispatch through
:mod:`repro.crypto.backend` so they run in libgmp when the gmp backend is
active, with bit-identical results either way.
"""

from __future__ import annotations

import random
import secrets

from repro.crypto import backend

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)

#: Default Miller-Rabin witness source. Module-level so repeated
#: validation calls draw fresh witnesses from one deterministic stream
#: instead of re-seeding (and re-paying RNG construction) per call; the
#: 2^-80 error bound holds for any witness sequence, so sharing the
#: stream does not weaken the test.
_DEFAULT_MR_RNG = random.Random(0xC0FFEE)


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    With the default 40 rounds the error probability is below 2^-80, which
    matches the security level of the 160-bit group order used by the paper.

    Args:
        n: candidate integer.
        rounds: number of Miller-Rabin witnesses to try.
        rng: randomness source for witness selection; defaults to a
            deterministic generator so the test itself is reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = rng or _DEFAULT_MR_RNG
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = backend.powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = backend.powmod(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def inverse_mod(a: int, m: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``m``.

    Raises:
        ZeroDivisionError: if ``a`` is not invertible modulo ``m``.
    """
    return backend.invert(a, m)


def random_scalar(q: int, rng: random.Random | None = None) -> int:
    """Return a uniform element of ``Z_q^* = [1, q)``.

    Protocol values (blinding factors, nonces, secret keys) must never be
    zero; drawing from ``[1, q)`` rules out the degenerate cases without
    measurably biasing the distribution for 160-bit ``q``.

    Args:
        q: group order.
        rng: optional deterministic randomness source (tests, simulations).
            When omitted, cryptographically secure randomness is used.
    """
    if rng is None:
        return secrets.randbelow(q - 1) + 1
    return rng.randrange(1, q)


def random_bits(bits: int, rng: random.Random | None = None) -> int:
    """Return a uniform integer in ``[0, 2^bits)``."""
    if rng is None:
        return secrets.randbits(bits)
    return rng.getrandbits(bits)


def generate_group_parameters(
    p_bits: int,
    q_bits: int,
    seed: int | None = None,
) -> tuple[int, int, int, int, int]:
    """Generate DSA-style Schnorr group parameters ``(p, q, g, g1, g2)``.

    ``q`` is a ``q_bits`` prime, ``p = k*q + 1`` is a ``p_bits`` prime and
    ``g, g1, g2`` are independent generators of the order-``q`` subgroup of
    ``Z_p^*``. Generation is slow for 1024-bit ``p``; production code should
    use the pre-generated parameters in :mod:`repro.core.params`.

    Args:
        p_bits: bit length of the field prime ``p``.
        q_bits: bit length of the subgroup order ``q``.
        seed: optional seed for reproducible generation.

    Returns:
        The tuple ``(p, q, g, g1, g2)``.
    """
    if q_bits >= p_bits:
        raise ValueError("q_bits must be smaller than p_bits")
    rng = random.Random(seed) if seed is not None else random.Random(secrets.randbits(128))
    while True:
        q = rng.getrandbits(q_bits) | (1 << (q_bits - 1)) | 1
        if not is_probable_prime(q):
            continue
        for _ in range(4096):
            k = rng.getrandbits(p_bits - q_bits) | (1 << (p_bits - q_bits - 1))
            if k % 2:
                k += 1
            p = q * k + 1
            if p.bit_length() != p_bits or not is_probable_prime(p):
                continue
            generators: list[int] = []
            while len(generators) < 3:
                h = rng.randrange(2, p - 1)
                candidate = backend.powmod(h, (p - 1) // q, p)
                if candidate != 1 and candidate not in generators:
                    generators.append(candidate)
            g, g1, g2 = generators
            return p, q, g, g1, g2
