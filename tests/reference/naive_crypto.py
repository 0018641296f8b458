"""The naive arithmetic this repository could run through PR 17, kept as a test oracle.

Until PR 18 the perf engine's off state selected these bodies at run
time; they are the ``else`` branches of ``SchnorrGroup.exp`` / ``commit2``,
``SchnorrKeyPair.generate`` / ``sign``, ``PartiallyBlindSigner.__init__``,
``schnorr._naive_check`` and the engine-off evaluation of ``blind.check``,
plus ``BlindSession.start`` / ``finish`` as they stood before PR 24 split
``prepare`` off (one body, blinding drawn after ``(a, b)`` arrived),
verbatim, with ``self`` spelled ``group`` and ``backend.powmod`` spelled
as the builtin ``pow`` it either is (python backend) or is held to
(``tests/crypto/test_backend_gmp.py``). One modular exponentiation per
logical ``Exp``, a Fermat inversion where the engine rewrites ``X^{-e}``
as ``X^{q-e}``, no tables, no memo, no counters.

Nothing under ``src/`` imports this module, and it imports nothing from
``repro.perf`` or ``repro.crypto.backend``;
``tests/crypto/test_engine_differential.py`` holds the engine to it.
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto.blind import PartiallyBlindSignature, SignerChallenge, SignerResponse
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import HashInput, HashSuite, encode_for_hash
from repro.crypto.numbers import random_scalar
from repro.crypto.schnorr import SchnorrSignature


def exp(group: SchnorrGroup, base: int, exponent: int) -> int:
    """``SchnorrGroup.exp``."""
    return pow(base, exponent % group.q, group.p)


def commit2(group: SchnorrGroup, base_a: int, exp_a: int, base_b: int, exp_b: int) -> int:
    """``SchnorrGroup.commit2``."""
    return (pow(base_a, exp_a % group.q, group.p) * pow(base_b, exp_b % group.q, group.p)) % group.p


def is_element(group: SchnorrGroup, value: int) -> bool:
    """``SchnorrGroup.is_element``."""
    if not 1 <= value < group.p:
        return False
    return pow(value, group.q, group.p) == 1


def public_key(group: SchnorrGroup, secret: int) -> int:
    """The public half of ``SchnorrKeyPair.generate`` and ``PartiallyBlindSigner``."""
    return pow(group.g, secret, group.p)


def _challenge(group: SchnorrGroup, commitment: int, public: int, message: bytes) -> int:
    data = encode_for_hash(commitment, public, message)
    return int.from_bytes(hashlib.sha256(b"repro/schnorr/" + data).digest(), "big") % group.q


def schnorr_sign(
    group: SchnorrGroup,
    secret: int,
    public: int,
    *message_parts: HashInput,
    rng: random.Random | None = None,
) -> SchnorrSignature:
    """``SchnorrKeyPair.sign``."""
    message = encode_for_hash(*message_parts)
    k = random_scalar(group.q, rng)
    commitment = pow(group.g, k, group.p)
    e = _challenge(group, commitment, public, message)
    s = (k + e * secret) % group.q
    return SchnorrSignature(e=e, s=s)


def schnorr_verify(
    group: SchnorrGroup,
    public: int,
    signature: SchnorrSignature,
    *message_parts: HashInput,
) -> bool:
    """``schnorr._naive_check``."""
    message = encode_for_hash(*message_parts)
    if not (0 <= signature.e < group.q and 0 <= signature.s < group.q):
        return False
    if not is_element(group, public):
        return False
    commitment = (
        pow(group.g, signature.s, group.p)
        * pow(pow(public, signature.e, group.p), group.p - 2, group.p)
    ) % group.p
    return _challenge(group, commitment, public, message) == signature.e


def blind_verify(
    group: SchnorrGroup,
    hashes: HashSuite,
    signer_public: int,
    info_parts: tuple[HashInput, ...],
    message_parts: tuple[HashInput, ...],
    signature: PartiallyBlindSignature,
) -> bool:
    """``blind.check`` with the engine off."""
    q = group.q
    if not all(0 <= v < q for v in (signature.rho, signature.omega, signature.sigma, signature.delta)):
        return False
    z = hashes.F(*info_parts)
    left = commit2(group, group.g, signature.rho, signer_public, signature.omega)
    right = commit2(group, group.g, signature.sigma, z, signature.delta)
    expected = hashes.H(left, right, z, *message_parts)
    return (signature.omega + signature.delta) % q == expected


def blind_start(
    group: SchnorrGroup,
    hashes: HashSuite,
    signer_public: int,
    info_parts: tuple[HashInput, ...],
    message_parts: tuple[HashInput, ...],
    challenge: SignerChallenge,
    rng: random.Random | None = None,
) -> tuple[int, tuple[int, int, int, int]]:
    """``BlindSession.start`` in one piece: ``(e, (t1, t2, t3, t4))``."""
    z = hashes.F(*info_parts)
    t1 = random_scalar(group.q, rng)
    t2 = random_scalar(group.q, rng)
    t3 = random_scalar(group.q, rng)
    t4 = random_scalar(group.q, rng)
    alpha = (challenge.a * commit2(group, group.g, t1, signer_public, t2)) % group.p
    beta = (challenge.b * commit2(group, group.g, t3, z, t4)) % group.p
    epsilon = hashes.H(alpha, beta, z, *message_parts)
    return (epsilon - t2 - t4) % group.q, (t1, t2, t3, t4)


def blind_unblind(
    group: SchnorrGroup,
    e: int,
    factors: tuple[int, int, int, int],
    response: SignerResponse,
) -> PartiallyBlindSignature:
    """The arithmetic of ``BlindSession.finish`` (its check is :func:`blind_verify`)."""
    t1, t2, t3, t4 = factors
    q = group.q
    return PartiallyBlindSignature(
        rho=(response.r + t1) % q,
        omega=(response.c + t2) % q,
        sigma=(response.s + t3) % q,
        delta=(e - response.c + t4) % q,
    )
