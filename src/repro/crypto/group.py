"""Schnorr groups of prime order.

The paper works in the order-``q`` subgroup ``<g>`` of ``Z_p^*`` where ``p``
and ``q`` are primes with ``q | p - 1`` (1024-bit ``p`` and 160-bit ``q`` in
the implementation section). :class:`SchnorrGroup` bundles the parameters
with the three public generators ``g`` (broker key base), ``g1`` and ``g2``
(representation bases for coin secrets) and provides the group operations.

Every exponentiation performed through :meth:`SchnorrGroup.exp` is reported
to the active :class:`~repro.crypto.counters.OpCounter`, which is how the
Table 1 benchmark counts ``Exp`` events.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Collection
from dataclasses import dataclass, field

from repro import perf
from repro.crypto import backend, counters
from repro.crypto.numbers import inverse_mod, is_probable_prime, random_scalar

#: Parameter tuples that already passed the full :meth:`SchnorrGroup.validate`
#: battery. Validation is pure number theory — backend-independent — so the
#: memo survives :func:`repro.crypto.backend.set_backend` switches; equal
#: groups reconstructed from wire bytes skip the three
#: Miller-Rabin runs and three subgroup checks.
_VALIDATED_PARAMS: set[tuple[int, int, int, int, int]] = set()


def params_digest(p: int, q: int, g: int, g1: int, g2: int) -> str:
    """SHA-256 over a parameter tuple, the form a validated tuple is pinned in."""
    return hashlib.sha256(f"{p:x}:{q:x}:{g:x}:{g1:x}:{g2:x}".encode("ascii")).hexdigest()


def check_parameters(p: int, q: int, g: int, g1: int, g2: int) -> None:
    """The full validation battery: three primality/divisibility checks
    and one subgroup-order check per generator.

    Raises:
        ValueError: if ``p``/``q`` are not prime, ``q`` does not divide
            ``p - 1``, or any generator does not have order ``q``.
    """
    if not is_probable_prime(p):
        raise ValueError("p is not prime")
    if not is_probable_prime(q):
        raise ValueError("q is not prime")
    if (p - 1) % q != 0:
        raise ValueError("q does not divide p - 1")
    for name, gen in (("g", g), ("g1", g1), ("g2", g2)):
        if gen in (0, 1) or backend.powmod(gen, q, p) != 1:
            raise ValueError(f"{name} does not generate the order-q subgroup")


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order subgroup of ``Z_p^*`` with fixed generators.

    Attributes:
        p: field prime.
        q: prime order of the subgroup, ``q | p - 1``.
        g: generator of the subgroup (base of the broker's key ``y = g^x``).
        g1: first representation base.
        g2: second representation base.
    """

    p: int
    q: int
    g: int
    g1: int
    g2: int
    _validated: bool = field(default=False, repr=False, compare=False)

    def validate(self, pinned: Collection[str] = ()) -> None:
        """Check the group parameters for consistency.

        The result is memoized twice over: on the instance, and in a
        module-level table keyed by ``(p, q, g, g1, g2)`` — so *equal*
        groups (rebuilt from wire bytes or test fixtures) skip
        the three Miller-Rabin runs and three subgroup checks too. Both
        memos are backend-independent and survive
        :func:`repro.crypto.backend.set_backend` switches.

        Args:
            pinned: :func:`params_digest` values of tuples the caller
                ships with the code and has run :func:`check_parameters`
                on ahead of time (a tier-1 test re-runs it on each). A
                tuple whose digest is among them takes the memoized
                path; any other runs the full battery.

        Raises:
            ValueError: if ``p``/``q`` are not prime, ``q`` does not divide
                ``p - 1``, or any generator does not have order ``q``.
        """
        if self._validated:
            return
        key = (self.p, self.q, self.g, self.g1, self.g2)
        if key not in _VALIDATED_PARAMS:
            if params_digest(*key) not in pinned:
                check_parameters(*key)
            _VALIDATED_PARAMS.add(key)
        # A validated group's generators are the hottest fixed bases in the
        # whole system; mark them for the perf engine's fixed-base tables.
        for gen in (self.g, self.g1, self.g2):
            perf.register(gen, self.p, self.q)
        object.__setattr__(self, "_validated", True)

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------
    def exp(self, base: int, exponent: int) -> int:
        """Return ``base^exponent mod p`` and record one ``Exp`` event.

        Fixed bases (the generators and registered public keys) may be
        served from precomputed fixed-base tables; the result is bit-identical
        to ``pow(base, exponent % q, p)``.
        """
        counters.record_exp()
        return perf.fpow(base, exponent, self.p, self.q)

    def mul(self, *elements: int) -> int:
        """Return the product of group elements modulo ``p``.

        Raises:
            ValueError: when called with no arguments — an accidental
                empty product (silently ``1``) masks caller bugs.
        """
        if not elements:
            raise ValueError("mul() needs at least one group element (empty product bug?)")
        out = 1
        for element in elements:
            out = (out * element) % self.p
        return out

    def inv(self, element: int) -> int:
        """Return the inverse of a group element modulo ``p``."""
        return inverse_mod(element, self.p)

    def scalar(self, value: int) -> int:
        """Reduce ``value`` into ``Z_q``."""
        return value % self.q

    def scalar_inv(self, value: int) -> int:
        """Return the inverse of ``value`` in ``Z_q``.

        Raises:
            ZeroDivisionError: if ``value == 0 (mod q)``.
        """
        return inverse_mod(value % self.q, self.q)

    def random_scalar(self, rng: random.Random | None = None) -> int:
        """Sample a uniform non-zero scalar from ``Z_q``."""
        return random_scalar(self.q, rng)

    def random_element(self, rng: random.Random | None = None) -> int:
        """Sample a uniform element of ``<g>`` (costs one exponentiation)."""
        return self.exp(self.g, self.random_scalar(rng))

    def is_element(self, value: int) -> bool:
        """Return ``True`` iff ``value`` lies in the order-``q`` subgroup.

        Membership checks are part of input validation, not of the protocol
        cost model, so the exponentiation here is intentionally *not*
        reported to the active counter.
        """
        if not 1 <= value < self.p:
            return False
        with counters.suppressed():
            return backend.powmod(value, self.q, self.p) == 1

    def commit2(self, base_a: int, exp_a: int, base_b: int, exp_b: int) -> int:
        """Return ``base_a^exp_a * base_b^exp_b mod p`` (two ``Exp`` events).

        This is the ubiquitous two-base commitment shape
        (``A = g1^x1 g2^x2``, ``g^rho y^omega`` ...). The paper's Table 1
        counts it as two exponentiations and the *logical* accounting
        always reports exactly that — the physical computation is one
        simultaneous multi-exponentiation (fixed-base tables where
        available, shared squarings otherwise).
        """
        counters.record_exp(2)
        return perf.multi_exp(self.p, self.q, ((base_a, exp_a), (base_b, exp_b)))

    def element_bytes(self) -> int:
        """Serialized size of one group element in bytes."""
        return (self.p.bit_length() + 7) // 8

    def scalar_bytes(self) -> int:
        """Serialized size of one scalar in bytes."""
        return (self.q.bit_length() + 7) // 8
