"""Schnorr signatures over the protocol group.

The paper uses ordinary digital signatures in three places: the broker's
signature on witness-range assignments (``Sig_B``), the witness's signed
commitment (step 2 of the payment protocol) and the witness's signature on
the payment transcript (``Sig_{M_C}``). We realize all of them with compact
Schnorr signatures ``(e, s)`` over the same Schnorr group the coins live in,
so no second cryptosystem is needed.

A signing operation reports a single ``Sig`` event and a verification a
single ``Ver`` event; their internal exponentiations/hashes are suppressed,
matching how Table 1 of the paper tallies operations.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro import perf
from repro.crypto import backend, counters
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import HashInput, encode_for_hash
from repro.crypto.numbers import random_scalar


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(e, s)`` on a canonicalized message."""

    e: int
    s: int


def _challenge(group: SchnorrGroup, commitment: int, public_key: int, message: bytes) -> int:
    data = encode_for_hash(commitment, public_key, message)
    return int.from_bytes(hashlib.sha256(b"repro/schnorr/" + data).digest(), "big") % group.q


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A Schnorr key pair; ``public = g^secret``.

    Create with :meth:`generate`; the secret key never leaves the object.
    """

    group: SchnorrGroup
    secret: int
    public: int

    @classmethod
    def generate(cls, group: SchnorrGroup, rng: random.Random | None = None) -> "SchnorrKeyPair":
        """Generate a fresh key pair (one untallied exponentiation).

        ``g^secret`` is one ``backend.powmod``, not a use of ``g``'s
        fixed-base table, so deriving keys builds no table.
        """
        secret = random_scalar(group.q, rng)
        with counters.suppressed():
            public = backend.powmod(group.g, secret, group.p)
        # Key pairs are long-lived and their public keys recur as the base
        # of every verification; make them candidates for fixed-base tables.
        perf.register(public, group.p, group.q)
        return cls(group=group, secret=secret, public=public)

    def sign(self, *message_parts: HashInput, rng: random.Random | None = None) -> SchnorrSignature:
        """Sign a canonicalized message tuple (one ``Sig`` event)."""
        counters.record_sig()
        message = encode_for_hash(*message_parts)
        with counters.suppressed():
            k = random_scalar(self.group.q, rng)
            commitment = perf.fpow(self.group.g, k, self.group.p, self.group.q)
            e = _challenge(self.group, commitment, self.public, message)
            s = (k + e * self.secret) % self.group.q
        return SchnorrSignature(e=e, s=s)

    def verify(self, signature: SchnorrSignature, *message_parts: HashInput) -> bool:
        """Verify a signature under this key pair's public key."""
        return verify(self.group, self.public, signature, *message_parts)


def verify(
    group: SchnorrGroup,
    public_key: int,
    signature: SchnorrSignature,
    *message_parts: HashInput,
) -> bool:
    """Verify a Schnorr signature (one ``Ver`` event).

    Recomputes ``R' = g^s * X^{-e}`` and accepts iff the challenge
    recomputed over ``R'`` equals ``e``.

    ``X^{-e}`` is computed as ``X^{(q - e) mod q}`` — sound because the
    membership check before it guarantees ``X`` has order ``q`` — which
    makes the verification a single simultaneous multi-exponentiation
    with no modular inversion.
    """
    counters.record_ver()
    message = encode_for_hash(*message_parts)
    with counters.suppressed():
        ok, _ = _fast_check(group, public_key, signature, message)
    return ok


def check(
    group: SchnorrGroup,
    public_key: int,
    signature: SchnorrSignature,
    *message_parts: HashInput,
) -> "tuple[bool, perf.CommitmentClaim | None]":
    """:func:`verify` plus the fast-path recovery claim (one ``Ver``).

    Same verdict and same logical accounting as :func:`verify`; the extra
    claim (``None`` when verification rejected before recovering a
    commitment) lets a :class:`~repro.perf.batch.ClaimSet` certify many
    recoveries' arithmetic in one combined equation.
    """
    counters.record_ver()
    message = encode_for_hash(*message_parts)
    with counters.suppressed():
        return _fast_check(group, public_key, signature, message)


def _fast_check(
    group: SchnorrGroup,
    public_key: int,
    signature: SchnorrSignature,
    message: bytes,
) -> tuple[bool, "perf.CommitmentClaim | None"]:
    """Verification core; counter-free.

    Returns the verdict together with the :class:`~repro.perf.batch.
    CommitmentClaim` recording how the commitment was recovered. The
    claim is ``None`` when verification failed before any recovery
    happened (range or membership reject).
    """
    if not (0 <= signature.e < group.q and 0 <= signature.s < group.q):
        return False, None
    # Same membership predicate as group.is_element, memoized:
    # verification keys recur across thousands of signatures.
    if not perf.is_subgroup_member(group.p, group.q, public_key):
        return False, None
    pairs = ((group.g, signature.s), (public_key, (group.q - signature.e) % group.q))
    commitment = perf.multi_exp(group.p, group.q, pairs)
    ok = _challenge(group, commitment, public_key, message) == signature.e
    return ok, perf.CommitmentClaim(commitment=commitment, pairs=pairs)
