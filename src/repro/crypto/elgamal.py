"""ElGamal encryption over the protocol group.

Substrate for the escrow extension (Section 3's "Usability and
Extendibility": *"The system should allow for incorporation of escrow
mechanisms that allow tracing the coin owner"*). A trustee holds an
ElGamal key pair; escrowed coins carry an encryption of the owner's
identity element that only the trustee can open.

Ciphertexts are pairs ``(c1, c2) = (g^r, m * y^r)`` with ``m`` an element
of the order-``q`` subgroup. The scheme is multiplicatively homomorphic
and re-randomizable; :meth:`ElGamalCiphertext.rerandomize` is what lets a
client detach an escrow tag from the issuing session.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import counters
from repro.crypto.group import SchnorrGroup
from repro.crypto.numbers import random_scalar
from repro.crypto.serialize import WireFields, as_int


@dataclass(frozen=True)
class ElGamalCiphertext:
    """A ciphertext ``(c1, c2)``."""

    c1: int
    c2: int

    def rerandomize(
        self, group: SchnorrGroup, public_key: int, rng: random.Random | None = None
    ) -> tuple["ElGamalCiphertext", int]:
        """Return an unlinkable ciphertext of the same plaintext.

        Returns the fresh ciphertext and the randomness delta used, so the
        caller can still produce correctness proofs if needed.
        """
        delta = random_scalar(group.q, rng)
        fresh = ElGamalCiphertext(
            c1=group.mul(self.c1, group.exp(group.g, delta)),
            c2=group.mul(self.c2, group.exp(public_key, delta)),
        )
        return fresh, delta

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {"c1": self.c1, "c2": self.c2}

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "ElGamalCiphertext":
        """Parse URI fields, read from under ``prefix``."""
        return cls(c1=as_int(fields[prefix + "c1"]), c2=as_int(fields[prefix + "c2"]))


@dataclass(frozen=True)
class ElGamalKeyPair:
    """Trustee key pair; ``public = g^secret``."""

    group: SchnorrGroup
    secret: int
    public: int

    @classmethod
    def generate(cls, group: SchnorrGroup, rng: random.Random | None = None) -> "ElGamalKeyPair":
        """Generate a fresh key pair (untallied: key setup, not protocol)."""
        secret = random_scalar(group.q, rng)
        with counters.suppressed():
            public = pow(group.g, secret, group.p)
        return cls(group=group, secret=secret, public=public)

    def decrypt(self, ciphertext: ElGamalCiphertext) -> int:
        """Recover the plaintext group element."""
        group = self.group
        shared = group.exp(ciphertext.c1, self.secret)
        return group.mul(ciphertext.c2, group.inv(shared))


def encrypt(
    group: SchnorrGroup,
    public_key: int,
    message: int,
    rng: random.Random | None = None,
) -> tuple[ElGamalCiphertext, int]:
    """Encrypt a group element; returns the ciphertext and the randomness.

    The randomness is returned because the escrow cut-and-choose requires
    *opening* candidate ciphertexts: revealing ``r`` lets a verifier check
    ``c1 == g^r`` and ``c2 == m * y^r`` for a claimed ``m``.

    Raises:
        ValueError: the message is not an element of the subgroup.
    """
    if not group.is_element(message):
        raise ValueError("ElGamal plaintext must be a subgroup element")
    r = random_scalar(group.q, rng)
    ciphertext = ElGamalCiphertext(
        c1=group.exp(group.g, r),
        c2=group.mul(message, group.exp(public_key, r)),
    )
    return ciphertext, r


def verify_opening(
    group: SchnorrGroup,
    public_key: int,
    ciphertext: ElGamalCiphertext,
    message: int,
    randomness: int,
) -> bool:
    """Check that ``ciphertext`` encrypts ``message`` under ``randomness``."""
    return ciphertext.c1 == group.exp(group.g, randomness) and ciphertext.c2 == group.mul(
        message, group.exp(public_key, randomness)
    )


__all__ = ["ElGamalCiphertext", "ElGamalKeyPair", "encrypt", "verify_opening"]
