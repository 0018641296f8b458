"""Baseline: offline e-cash with detect-at-deposit (Chaum-Fiat-Naor / Brands).

In the classic offline designs "each coin contains a hidden reference to
the coin owner: if the coin is spent once it is untraceable, while
spending a coin twice allows the broker to extract the identity hidden
inside the coin" (Section 2). The price: clients must register accounts
(and leave security deposits or credit cards), and merchants only learn of
fraud *after* the coins are deposited.

We implement the Brands-style identity embedding on top of our
representation machinery: a registered client's coins use

    ``A = g1^u1 * g2^u2``   with   ``I = g1^u1``  the registered identity,

``u1`` fixed per client. One payment response reveals nothing about
``u1``; two responses with distinct challenges let the bank extract
``(u1, u2)`` and look up ``g1^u1`` in its account register — after-the-fact
attribution instead of the paper's real-time prevention.

The baseline benchmark measures the quantity this design cannot bound: the
number of *successful* fraudulent payments before detection, and the
exposure window between fraud and deposit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.exceptions import InvalidPaymentError, UnknownMerchantError
from repro.core.params import SystemParams
from repro.crypto import counters
from repro.crypto.numbers import random_scalar
from repro.crypto.representation import (
    Representation,
    RepresentationPair,
    RepresentationResponse,
    extract_representations,
    respond,
    verify_response,
)


@dataclass(frozen=True)
class OfflineCoin:
    """A baseline coin: commitments ``(A, B)`` with identity inside ``A``."""

    commitment_a: int
    commitment_b: int
    serial: int

    def challenge(self, params: SystemParams, merchant_id: str, timestamp: int) -> int:
        """Payment challenge binding merchant and time."""
        return params.hashes.H0(
            "offline-coin", self.serial, self.commitment_a, self.commitment_b,
            merchant_id, timestamp,
        )


@dataclass(frozen=True)
class OfflinePayment:
    """One offline payment transcript (verifiable without any third party)."""

    coin: OfflineCoin
    merchant_id: str
    timestamp: int
    response: RepresentationResponse

    def verify(self, params: SystemParams) -> bool:
        """Check the representation proof (the merchant's only defense)."""
        d = self.coin.challenge(params, self.merchant_id, self.timestamp)
        return verify_response(
            params.group, self.coin.commitment_a, self.coin.commitment_b, d, self.response
        )


@dataclass
class OfflineSpender:
    """A registered client of the offline scheme.

    Args:
        params: system parameters.
        account_secret: ``u1``; the registered identity is ``g1^u1``.
    """

    params: SystemParams
    account_secret: int
    rng: random.Random | None = None
    _serial_counter: int = 0

    @property
    def identity(self) -> int:
        """The registered public identity ``I = g1^u1``."""
        with counters.suppressed():
            return self.params.group.exp(self.params.group.g1, self.account_secret)

    def mint_coin(self) -> tuple[OfflineCoin, RepresentationPair]:
        """Create one coin whose ``A`` embeds the client identity.

        (The blind-issuing round is identical to the main scheme's and is
        not what this baseline studies, so coins are minted directly.)
        """
        group = self.params.group
        u2 = random_scalar(group.q, self.rng)
        secrets = RepresentationPair(
            x=Representation(self.account_secret, u2),
            y=Representation(random_scalar(group.q, self.rng), random_scalar(group.q, self.rng)),
        )
        commitment_a, commitment_b = secrets.commitments(group)
        self._serial_counter += 1
        coin = OfflineCoin(
            commitment_a=commitment_a,
            commitment_b=commitment_b,
            serial=self._serial_counter,
        )
        return coin, secrets

    def pay(
        self,
        coin: OfflineCoin,
        secrets: RepresentationPair,
        merchant_id: str,
        timestamp: int,
    ) -> OfflinePayment:
        """Produce a payment transcript (works any number of times — that
        is precisely the problem this baseline has)."""
        d = coin.challenge(self.params, merchant_id, timestamp)
        return OfflinePayment(
            coin=coin,
            merchant_id=merchant_id,
            timestamp=timestamp,
            response=respond(secrets, d, self.params.group.q),
        )


@dataclass
class OfflineBank:
    """The offline scheme's bank: registers identities, detects at deposit."""

    params: SystemParams
    accounts: dict[int, str] = field(default_factory=dict)
    deposited: dict[tuple[int, int, int], OfflinePayment] = field(default_factory=dict)
    frauds_detected: list[tuple[str, OfflinePayment, OfflinePayment]] = field(
        default_factory=list
    )

    def register(self, client_name: str, identity: int) -> None:
        """Record a client's identity commitment ``g1^u1``.

        Raises:
            ValueError: identity already registered.
        """
        if identity in self.accounts:
            raise ValueError("identity already registered")
        self.accounts[identity] = client_name

    def deposit(self, payment: OfflinePayment) -> str | None:
        """Accept a deposit; returns the cheater's name if fraud surfaces.

        Raises:
            InvalidPaymentError: transcript fails verification.
        """
        if not payment.verify(self.params):
            raise InvalidPaymentError("offline payment transcript failed verification")
        key = (payment.coin.serial, payment.coin.commitment_a, payment.coin.commitment_b)
        previous = self.deposited.get(key)
        if previous is None:
            self.deposited[key] = payment
            return None
        d1 = previous.coin.challenge(self.params, previous.merchant_id, previous.timestamp)
        d2 = payment.coin.challenge(self.params, payment.merchant_id, payment.timestamp)
        if d1 == d2:
            # Same merchant redepositing the same transcript: no new info.
            return None
        secrets = extract_representations(
            d1, previous.response, d2, payment.response, self.params.group.q
        )
        cheater = self.identify(secrets.x)
        if cheater is None:
            raise UnknownMerchantError("extracted identity matches no registered client")
        self.frauds_detected.append((cheater, previous, payment))
        return cheater

    def identify(self, extracted: Representation) -> str | None:
        """Map an extracted representation to a registered client."""
        with counters.suppressed():
            identity = self.params.group.exp(self.params.group.g1, extracted.k1)
        return self.accounts.get(identity)


__all__ = ["OfflineCoin", "OfflinePayment", "OfflineSpender", "OfflineBank"]
