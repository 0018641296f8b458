"""The Abe-Okamoto partially blind signature scheme (CRYPTO 2000).

This is the engine of the paper's withdrawal protocol (Algorithm 1): the
broker signs the pair ``(A, B)`` *blind* while the public ``info`` string
(denomination, witness-list version, the two expiration dates) is attached
to the signature *unblinded* through ``z = F(info)``.

Message flow (client C, broker B with key pair ``y = g^x``)::

    B -> C : a = g^u, b = g^s z^d           (fresh u, s, d; z = F(info))
    C -> B : e                               (blinded challenge)
    B -> C : (r, c, s)                       (c = e - d, r = u - c*x)

after which the client unblinds to the signature ``(rho, omega, sigma,
delta)`` satisfying the public verification equation::

    omega + delta == H( g^rho y^omega || g^sigma z^delta || z || A || B )

Blindness comes from the four uniform blinding scalars ``t1..t4``: for any
signer view ``(a, b, e, r, c, s)`` and any valid signature there is exactly
one choice of ``t1..t4`` linking them, so the signer's view is statistically
independent of the unblinded coin.

The broker additionally gets :func:`verify_with_secret`, which uses its
knowledge of ``x`` to collapse ``g^rho y^omega`` into the single
exponentiation ``g^(rho + x*omega)`` — this is what makes the paper's
deposit row of Table 1 cost 6 exponentiations rather than 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import perf
from repro.crypto import backend
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import HashInput, HashSuite


@dataclass(frozen=True)
class PartiallyBlindSignature:
    """The unblinded signature ``(rho, omega, sigma, delta)`` on ``(info, A, B)``."""

    rho: int
    omega: int
    sigma: int
    delta: int

    def encoded_parts(self) -> dict[str, int]:
        """Return the signature fields for URI serialization."""
        return {
            "rho": self.rho,
            "omega": self.omega,
            "sigma": self.sigma,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class SignerChallenge:
    """Broker's first message ``(a, b)``."""

    a: int
    b: int


@dataclass(frozen=True)
class SignerResponse:
    """Broker's final message ``(r, c, s)``."""

    r: int
    c: int
    s: int


@dataclass(frozen=True)
class SignerSession:
    """Broker-side per-withdrawal state (the nonces behind ``a`` and ``b``).

    The broker must keep this secret and use it exactly once; reusing ``u``
    across sessions would leak the secret key exactly as nonce reuse does in
    plain Schnorr signatures.
    """

    u: int
    s: int
    d: int
    z: int


class PartiallyBlindSigner:
    """The signer (broker) side of the Abe-Okamoto scheme.

    Args:
        group: the Schnorr group.
        hashes: the protocol hash suite (provides ``F`` and ``H``).
        secret: the signing key ``x``; generated fresh when omitted.
        rng: optional deterministic randomness source.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        hashes: HashSuite,
        secret: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.group = group
        self.hashes = hashes
        self._rng = rng
        self._secret = secret if secret is not None else group.random_scalar(rng)
        import repro.crypto.counters as counters

        with counters.suppressed():
            # One powmod: deriving the key builds no fixed-base table.
            self.public = backend.powmod(group.g, self._secret % group.q, group.p)
        # ``y`` is the base of ``y^omega`` in every coin verification in
        # the system — the single most profitable fixed base after ``g``.
        perf.register(self.public, group.p, group.q)

    def start(self, info_parts: tuple[HashInput, ...]) -> tuple[SignerChallenge, SignerSession]:
        """Step 1: produce ``(a, b)`` for a withdrawal with public ``info``.

        Costs 3 ``Exp`` + 1 ``Hash`` (``z = F(info)``, ``a = g^u``,
        ``b = g^s z^d``), matching the broker's withdrawal row in Table 1.
        """
        group = self.group
        z = self.hashes.F(*info_parts)
        u = group.random_scalar(self._rng)
        s = group.random_scalar(self._rng)
        d = group.random_scalar(self._rng)
        a = group.exp(group.g, u)
        b = group.commit2(group.g, s, z, d)
        return SignerChallenge(a=a, b=b), SignerSession(u=u, s=s, d=d, z=z)

    def respond(self, session: SignerSession, e: int) -> SignerResponse:
        """Step 3: answer the blinded challenge ``e`` with ``(r, c, s)``.

        Pure ``Z_q`` arithmetic; contributes no Table 1 operations.
        """
        q = self.group.q
        c = (e - session.d) % q
        r = (session.u - c * self._secret) % q
        return SignerResponse(r=r, c=c, s=session.s)

    def verify_with_secret(
        self,
        info_parts: tuple[HashInput, ...],
        message_parts: tuple[HashInput, ...],
        signature: PartiallyBlindSignature,
    ) -> bool:
        """Verify a signature using knowledge of the secret key.

        ``g^rho y^omega = g^(rho + x*omega)``, so the broker verifies with
        3 ``Exp`` + 2 ``Hash`` instead of the public 4 ``Exp`` + 2 ``Hash``.
        Refuses what :func:`verify` refuses: a scalar outside ``[0, q)``
        would satisfy the equation as its residue does, and ``rho + q``
        re-encodes a coin the broker has on record under a second key.
        """
        group = self.group
        if not _scalars_in_range(signature, group.q):
            return False
        z = self.hashes.F(*info_parts)
        exponent = (signature.rho + self._secret * signature.omega) % group.q
        left = group.exp(group.g, exponent)
        right = group.commit2(group.g, signature.sigma, z, signature.delta)
        expected = self.hashes.H(left, right, z, *message_parts)
        return (signature.omega + signature.delta) % group.q == expected


@dataclass(frozen=True)
class PreparedBlinding:
    """The half of step 2 that needs nothing from the signer. SECRET.

    ``z = F(info)``, the blinding scalars ``t1..t4`` and the two products
    they go into; the signer's ``(a, b)`` enter afterwards through two
    modular multiplications and one ``H`` (:meth:`BlindSession.start`).
    One holder blinds one session: it never travels and is never stored.
    """

    z: int
    t1: int
    t2: int
    t3: int
    t4: int
    blind_a: int
    blind_b: int


class BlindSession:
    """The user (client) side of one partially blind signing session.

    Create with :meth:`start`, send :attr:`e` to the signer, then call
    :meth:`finish` on the signer's response to obtain the unblinded
    signature. :meth:`prepare` is the part of :meth:`start` that can run
    before the signer's first message has arrived.
    """

    def __init__(
        self,
        group: SchnorrGroup,
        hashes: HashSuite,
        signer_public: int,
        info_parts: tuple[HashInput, ...],
        message_parts: tuple[HashInput, ...],
        blinding: PreparedBlinding,
        e: int,
    ) -> None:
        self.group = group
        self.hashes = hashes
        self.signer_public = signer_public
        self.info_parts = info_parts
        self.message_parts = message_parts
        self._blinding = blinding
        self.e = e

    def blinding_factors(self) -> tuple[int, int, int, int]:
        """Reveal ``(t1, t2, t3, t4)`` — for cut-and-choose openings ONLY.

        Revealing the blinding factors of a session destroys that
        session's blindness by design: the escrow issuing protocol opens
        audited candidates this way (the surviving candidate is never
        opened).
        """
        blinding = self._blinding
        return (blinding.t1, blinding.t2, blinding.t3, blinding.t4)

    @staticmethod
    def prepare(
        group: SchnorrGroup,
        hashes: HashSuite,
        signer_public: int,
        info_parts: tuple[HashInput, ...],
        rng: random.Random | None = None,
    ) -> PreparedBlinding:
        """Step 2 before ``(a, b)``: draw ``t1..t4``, build both blinders.

        Costs 4 ``Exp`` + 1 ``Hash`` (``g^t1 y^t2``, ``g^t3 z^t4``,
        ``F``) — all of :meth:`start`'s exponentiations.
        """
        z = hashes.F(*info_parts)
        t1 = group.random_scalar(rng)
        t2 = group.random_scalar(rng)
        t3 = group.random_scalar(rng)
        t4 = group.random_scalar(rng)
        return PreparedBlinding(
            z=z,
            t1=t1,
            t2=t2,
            t3=t3,
            t4=t4,
            blind_a=group.commit2(group.g, t1, signer_public, t2),
            blind_b=group.commit2(group.g, t3, z, t4),
        )

    @classmethod
    def start(
        cls,
        group: SchnorrGroup,
        hashes: HashSuite,
        signer_public: int,
        info_parts: tuple[HashInput, ...],
        message_parts: tuple[HashInput, ...],
        challenge: SignerChallenge,
        rng: random.Random | None = None,
        prepared: PreparedBlinding | None = None,
    ) -> "BlindSession":
        """Step 2: blind the signer's commitments and derive ``e``.

        Costs 4 ``Exp`` + 2 ``Hash`` here (``alpha``, ``beta``, ``F``,
        ``H``); the caller separately pays 4 ``Exp`` constructing ``A`` and
        ``B``, for the client's Table 1 total of 12 once the 4 ``Exp`` of
        :meth:`finish`'s check are included. All of it but two modular
        multiplications and ``H`` is :meth:`prepare`'s, run here unless
        the caller already did and hands the result in as ``prepared``
        (made for this signer and ``info_parts``; ``rng`` is then unread).
        """
        if prepared is None:
            prepared = cls.prepare(group, hashes, signer_public, info_parts, rng)
        alpha = group.mul(challenge.a, prepared.blind_a)
        beta = group.mul(challenge.b, prepared.blind_b)
        epsilon = hashes.H(alpha, beta, prepared.z, *message_parts)
        e = (epsilon - prepared.t2 - prepared.t4) % group.q
        return cls(
            group=group,
            hashes=hashes,
            signer_public=signer_public,
            info_parts=info_parts,
            message_parts=message_parts,
            blinding=prepared,
            e=e,
        )

    def finish(self, response: SignerResponse) -> PartiallyBlindSignature:
        """Step 4: unblind ``(r, c, s)`` and check the signature equation.

        Raises:
            ValueError: if the signer's response does not verify — i.e. the
                broker misbehaved or the transcript was corrupted in flight.
        """
        group = self.group
        q = group.q
        blinding = self._blinding
        rho = (response.r + blinding.t1) % q
        omega = (response.c + blinding.t2) % q
        sigma = (response.s + blinding.t3) % q
        delta = (self.e - response.c + blinding.t4) % q
        signature = PartiallyBlindSignature(rho=rho, omega=omega, sigma=sigma, delta=delta)
        left = group.commit2(group.g, rho, self.signer_public, omega)
        right = group.commit2(group.g, sigma, blinding.z, delta)
        expected = self.hashes.H(left, right, blinding.z, *self.message_parts)
        if (omega + delta) % q != expected:
            raise ValueError("partially blind signature failed to verify after unblinding")
        return signature


def _scalars_in_range(signature: PartiallyBlindSignature, q: int) -> bool:
    """Whether all four signature scalars are canonical residues mod ``q``."""
    return all(
        0 <= v < q
        for v in (signature.rho, signature.omega, signature.sigma, signature.delta)
    )


def verify(
    group: SchnorrGroup,
    hashes: HashSuite,
    signer_public: int,
    info_parts: tuple[HashInput, ...],
    message_parts: tuple[HashInput, ...],
    signature: PartiallyBlindSignature,
) -> bool:
    """Publicly verify a partially blind signature (4 ``Exp`` + 2 ``Hash``).

    This is the check every merchant, witness and third party runs on a
    coin: ``omega + delta == H(g^rho y^omega || g^sigma z^delta || z || A || B)``.
    """
    q = group.q
    if not _scalars_in_range(signature, q):
        return False
    z = hashes.F(*info_parts)
    left = group.commit2(group.g, signature.rho, signer_public, signature.omega)
    right = group.commit2(group.g, signature.sigma, z, signature.delta)
    expected = hashes.H(left, right, z, *message_parts)
    return (signature.omega + signature.delta) % q == expected


#: The name ``bench/layers.py`` times (``crypto.blind_check_us``); it has
#: no other caller — see ROADMAP item 4(b).
check = verify
