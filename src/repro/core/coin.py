"""Coins: the bare coin and the full-fledged coin.

Section 4: the *bare coin* is the unblinded tuple
``(rho, omega, sigma, delta, info, A, B)`` carrying the broker's partially
blind signature; the *full-fledged coin* additionally carries the signed
witness-range entry of the merchant whose range contains ``h(bare coin)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.exceptions import ExpiredCoinError, InvalidCoinError
from repro.core.info import CoinInfo
from repro.core.params import SystemParams
from repro.core.witness_ranges import SignedWitnessEntry
from repro.crypto import blind
from repro.crypto.blind import PartiallyBlindSignature
from repro.crypto.hashing import CachedEncoding, HashInput
from repro.crypto.serialize import WireFields, as_int, nest_keys


@dataclass(frozen=True)
class BareCoin(CachedEncoding):
    """The unblinded coin ``(rho, omega, sigma, delta, info, A, B)``.

    ``A = g1^x1 g2^x2`` and ``B = g1^y1 g2^y2`` are the owner's
    representation commitments; only the owner knows the representations,
    which is what the payment NIZK proves.
    """

    signature: PartiallyBlindSignature
    info: CoinInfo
    commitment_a: int
    commitment_b: int

    def hash_parts(self) -> tuple[HashInput, ...]:
        """Canonical tuple for ``h(bare coin)`` and transcript hashes."""
        return (
            "bare-coin",
            self.signature.rho,
            self.signature.omega,
            self.signature.sigma,
            self.signature.delta,
            *self.info.hash_parts(),
            self.commitment_a,
            self.commitment_b,
        )

    def message_parts(self) -> tuple[HashInput, ...]:
        """The blind-signed message: the pair ``(A, B)``."""
        return (self.commitment_a, self.commitment_b)

    def digest(self, params: SystemParams) -> int:
        """``h(bare coin)`` — selects the witness and keys every database.

        One ``Hash`` event per call: Table 1 counts a ``Hash`` for every
        check that recomputes the digest (the merchant's witness-entry
        check and its commitment check each do), so the digest itself is
        not cached. The coin's encoding is (:meth:`hash_encoding`), so a
        repeat costs one SHA-256 over cached bytes.
        """
        return params.hashes.h(self.hash_encoding()) % params.witness_hash_space

    def verify_signature(self, params: SystemParams, broker_blind_public: int) -> bool:
        """Publicly verify the broker's partially blind signature.

        Checks ``omega + delta == H(g^rho y^omega || g^sigma z^delta || z
        || A || B)`` with ``z = F(info)``: 4 ``Exp`` + 2 ``Hash``.
        """
        return blind.verify(
            params.group,
            params.hashes,
            broker_blind_public,
            self.info.hash_parts(),
            self.message_parts(),
            self.signature,
        )

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = (
        nest_keys("sig", ("rho", "omega", "sigma", "delta"))
        | nest_keys("info", CoinInfo.WIRE_KEYS)
        | {"A", "B"}
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {
            "sig": self.signature.encoded_parts(),
            "info": self.info.to_wire(),
            "A": self.commitment_a,
            "B": self.commitment_b,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "BareCoin":
        """Parse the flat dotted-key mapping, read from under ``prefix``."""
        return cls(
            signature=PartiallyBlindSignature(
                rho=as_int(fields[prefix + "sig.rho"]),
                omega=as_int(fields[prefix + "sig.omega"]),
                sigma=as_int(fields[prefix + "sig.sigma"]),
                delta=as_int(fields[prefix + "sig.delta"]),
            ),
            info=CoinInfo.from_wire(fields, prefix + "info."),
            commitment_a=as_int(fields[prefix + "A"]),
            commitment_b=as_int(fields[prefix + "B"]),
        )


@dataclass(frozen=True)
class Coin(CachedEncoding):
    """The full-fledged coin: bare coin plus its signed witness entry."""

    bare: BareCoin
    witness_entry: SignedWitnessEntry

    @property
    def info(self) -> CoinInfo:
        """The coin's public info."""
        return self.bare.info

    @property
    def witness_id(self) -> str:
        """Identifier of the assigned witness merchant."""
        return self.witness_entry.merchant_id

    @property
    def denomination(self) -> int:
        """Coin value in cents."""
        return self.bare.info.denomination

    def hash_parts(self) -> tuple[HashInput, ...]:
        """Canonical tuple for hashes over the *full* coin ``C``.

        The payment challenge ``d = H0(C, I_M, date/time)`` hashes the full
        coin, witness entry included, so a transcript cannot be replayed
        with a substituted witness assignment. The bare coin enters as its
        cached encoding: the same bytes as its parts, encoded once.
        """
        return (
            "coin",
            self.bare.hash_encoding(),
            *self.witness_entry.signed_parts(),
            self.witness_entry.signature.e,
            self.witness_entry.signature.s,
        )

    def digest(self, params: SystemParams) -> int:
        """``h(bare coin)`` of the underlying bare coin (one ``Hash``)."""
        return self.bare.digest(params)

    def ensure_spendable(self, now: int) -> None:
        """Raise unless the coin is within its spendable window.

        Raises:
            ExpiredCoinError: past the soft (or hard) expiration date.
        """
        if not self.bare.info.is_spendable(now):
            raise ExpiredCoinError(
                f"coin expired for spending at {self.bare.info.soft_expiry}, now {now}"
            )

    def ensure_valid_signature(self, params: SystemParams, broker_blind_public: int) -> None:
        """Raise unless the broker's signature on the bare coin verifies.

        Raises:
            InvalidCoinError: on verification failure.
        """
        if not self.bare.verify_signature(params, broker_blind_public):
            raise InvalidCoinError("broker's partially blind signature failed to verify")

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = nest_keys("bare", BareCoin.WIRE_KEYS) | nest_keys(
        "witness", SignedWitnessEntry.WIRE_KEYS
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {"bare": self.bare.to_wire(), "witness": self.witness_entry.to_wire()}

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "Coin":
        """Parse the flat dotted-key mapping, read from under ``prefix``."""
        return cls(
            bare=BareCoin.from_wire(fields, prefix + "bare."),
            witness_entry=SignedWitnessEntry.from_wire(fields, prefix + "witness."),
        )


__all__ = ["BareCoin", "Coin"]
