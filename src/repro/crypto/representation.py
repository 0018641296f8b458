"""Representation commitments, the payment NIZK, and double-spend extraction.

Following Brands and Okamoto, every coin carries two commitments

    ``A = g1^x1 * g2^x2``        ``B = g1^y1 * g2^y2``

whose *representations* ``(x1, x2)`` and ``(y1, y2)`` are known only to the
coin owner. A payment reveals the linear responses

    ``r1 = x1 + d*y1``           ``r2 = x2 + d*y2``      (mod q)

for the challenge ``d = H0(C, I_M, date/time)``, and anyone can check
``A * B^d == g1^r1 * g2^r2``. One response leaks nothing (it is uniform
given the challenge); two responses for *distinct* challenges — i.e. a
double-spend, since ``d`` binds the merchant identity and time — allow
anyone to solve the two linear equations and recover both representations
(:func:`extract_representations`), which is the publicly verifiable proof
of double-spending the witness hands out in step 5 of the payment protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.group import SchnorrGroup
from repro.crypto.numbers import inverse_mod, random_scalar


@dataclass(frozen=True)
class Representation:
    """A representation ``(k1, k2)`` of ``g1^k1 * g2^k2``."""

    k1: int
    k2: int

    def commit(self, group: SchnorrGroup) -> int:
        """Return the commitment ``g1^k1 * g2^k2`` (two ``Exp`` events)."""
        return group.commit2(group.g1, self.k1, group.g2, self.k2)

    def opens(self, group: SchnorrGroup, commitment: int) -> bool:
        """Check whether this representation opens ``commitment``.

        Used by verifiers of a double-spend proof; the two exponentiations
        are tallied (this is the "+2 Exp" the paper reports for a merchant
        handling a double-spend).
        """
        return self.commit(group) == commitment


@dataclass(frozen=True)
class RepresentationPair:
    """The coin secrets: representations of ``A`` and ``B``.

    Attributes:
        x: representation ``(x1, x2)`` of ``A``.
        y: representation ``(y1, y2)`` of ``B``.
    """

    x: Representation
    y: Representation

    @classmethod
    def generate(cls, group: SchnorrGroup, rng: random.Random | None = None) -> "RepresentationPair":
        """Draw fresh uniform coin secrets."""
        return cls(
            x=Representation(random_scalar(group.q, rng), random_scalar(group.q, rng)),
            y=Representation(random_scalar(group.q, rng), random_scalar(group.q, rng)),
        )

    def commitments(self, group: SchnorrGroup) -> tuple[int, int]:
        """Return ``(A, B)`` (four ``Exp`` events)."""
        return self.x.commit(group), self.y.commit(group)


@dataclass(frozen=True)
class RepresentationResponse:
    """A payment response ``(r1, r2)`` to a challenge ``d``."""

    r1: int
    r2: int


def respond(secrets: RepresentationPair, d: int, q: int) -> RepresentationResponse:
    """Compute ``r_i = x_i + d*y_i mod q`` — the client's payment proof.

    Pure ``Z_q`` arithmetic: the paying client performs no exponentiations,
    which is why the payment client row of Table 1 shows ``Exp = 0``.
    """
    return RepresentationResponse(
        r1=(secrets.x.k1 + d * secrets.y.k1) % q,
        r2=(secrets.x.k2 + d * secrets.y.k2) % q,
    )


def verify_response(
    group: SchnorrGroup,
    commitment_a: int,
    commitment_b: int,
    d: int,
    response: RepresentationResponse,
) -> bool:
    """Check ``A * B^d == g1^r1 * g2^r2`` (three ``Exp`` events).

    A response outside ``[0, q)`` is refused, like an out-of-range
    signature scalar: ``r1 + q`` opens the same commitment under a
    second encoding.
    """
    if not (0 <= response.r1 < group.q and 0 <= response.r2 < group.q):
        return False
    left = group.mul(commitment_a, group.exp(commitment_b, d))
    right = group.commit2(group.g1, response.r1, group.g2, response.r2)
    return left == right


def extract_representations(
    d1: int,
    response1: RepresentationResponse,
    d2: int,
    response2: RepresentationResponse,
    q: int,
) -> RepresentationPair:
    """Recover the coin secrets from two responses with distinct challenges.

    Solves the linear system (footnote 4 of the paper)::

        y_i = (r_i' - r_i) / (d' - d)    x_i = r_i - d * y_i    (mod q)

    Only ``Z_q`` arithmetic is involved — the witness that detects a
    double-spend does at most two exponentiations (to *check* the extracted
    values against ``A`` and ``B``), never more.

    Raises:
        ValueError: if ``d1 == d2 (mod q)`` — identical challenges carry no
            extra information, so nothing can be extracted.
    """
    if (d1 - d2) % q == 0:
        raise ValueError("cannot extract representations from identical challenges")
    inv = inverse_mod((d2 - d1) % q, q)
    y1 = ((response2.r1 - response1.r1) * inv) % q
    y2 = ((response2.r2 - response1.r2) * inv) % q
    x1 = (response1.r1 - d1 * y1) % q
    x2 = (response1.r2 - d1 * y2) % q
    return RepresentationPair(x=Representation(x1, x2), y=Representation(y1, y2))
