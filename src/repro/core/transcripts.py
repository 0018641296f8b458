"""Payment-protocol messages: commitments, transcripts and proofs.

These are the objects exchanged in Algorithm 2 (payment), carried into
Algorithm 3 (deposit) and handed to the arbiter in disputes. The module
also hosts the verification helpers shared by merchant, witness, broker and
arbiter, structured so that each helper is self-contained — which is
exactly how the per-party hash counts of Table 1 come out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.coin import Coin
from repro.core.exceptions import CommitmentError, InvalidPaymentError
from repro.core.params import SystemParams
from repro.crypto.hashing import CachedEncoding, HashInput, constant_time_eq
from repro.crypto.representation import (
    Representation,
    RepresentationPair,
    RepresentationResponse,
    verify_response,
)
from repro.crypto.schnorr import SchnorrSignature, verify as schnorr_verify
from repro.crypto.serialize import WireFields, as_int, as_text, nest_keys


def payment_nonce(params: SystemParams, salt: int, merchant_id: str) -> int:
    """``nonce = h(salt_C || I_M)`` — binds a commitment to one merchant."""
    return params.hashes.h("nonce", salt, merchant_id)


@dataclass(frozen=True)
class CommitmentRequest:
    """Step 1 of the payment protocol: ``(coin_hash, nonce)``.

    The witness learns *which* coin is about to be spent but not *where*:
    the merchant identity is hidden inside the nonce until the client
    reveals ``salt_C``.
    """

    coin_hash: int
    nonce: int

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = frozenset({"coin_hash", "nonce"})

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {"coin_hash": self.coin_hash, "nonce": self.nonce}

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "CommitmentRequest":
        """Parse URI fields, read from under ``prefix``."""
        return cls(
            coin_hash=as_int(fields[prefix + "coin_hash"]),
            nonce=as_int(fields[prefix + "nonce"]),
        )


@dataclass(frozen=True)
class WitnessCommitment:
    """Step 2: ``Sig_{M_C}(coin_hash, nonce, h(v), t_e, commit)``.

    ``v`` is the witness's committed evidence: a random value if the coin is
    fresh, or the prior (salted) transcript / extracted secrets if it was
    already spent. Only ``h(v)`` is revealed here; a merchant suspecting a
    race can demand ``v`` itself (see
    :meth:`repro.core.witness.WitnessService.reveal_commitment_value`).
    """

    witness_id: str
    coin_hash: int
    nonce: int
    v_hash: int
    expires_at: int
    signature: SchnorrSignature

    def signed_parts(self) -> tuple[HashInput, ...]:
        """The message tuple the witness signs."""
        return (
            "commit",
            self.witness_id,
            self.coin_hash,
            self.nonce,
            self.v_hash,
            self.expires_at,
        )

    def verify(self, params: SystemParams, witness_public: int) -> bool:
        """Verify the witness's signature (one ``Ver``)."""
        return schnorr_verify(params.group, witness_public, self.signature, *self.signed_parts())

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = frozenset(
        {"witness_id", "coin_hash", "nonce", "v_hash", "expires_at", "sig_e", "sig_s"}
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {
            "witness_id": self.witness_id,
            "coin_hash": self.coin_hash,
            "nonce": self.nonce,
            "v_hash": self.v_hash,
            "expires_at": self.expires_at,
            "sig_e": self.signature.e,
            "sig_s": self.signature.s,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "WitnessCommitment":
        """Parse URI fields, read from under ``prefix``."""
        return cls(
            witness_id=as_text(fields[prefix + "witness_id"]),
            coin_hash=as_int(fields[prefix + "coin_hash"]),
            nonce=as_int(fields[prefix + "nonce"]),
            v_hash=as_int(fields[prefix + "v_hash"]),
            expires_at=as_int(fields[prefix + "expires_at"]),
            signature=SchnorrSignature(
                e=as_int(fields[prefix + "sig_e"]), s=as_int(fields[prefix + "sig_s"])
            ),
        )


@dataclass(frozen=True)
class PaymentTranscript(CachedEncoding):
    """``(C, r1, r2, I_M, date/time, salt_C)`` — the core payment object."""

    coin: Coin
    response: RepresentationResponse
    merchant_id: str
    timestamp: int
    salt: int

    def challenge(self, params: SystemParams) -> int:
        """``d = H0(C, I_M, date/time)`` (one ``Hash``).

        Binding the challenge to the merchant and time means a second
        spend necessarily uses a different ``d``, which is what makes
        extraction possible.
        """
        return params.hashes.H0(self.coin.hash_encoding(), self.merchant_id, self.timestamp)

    def hash_parts(self) -> tuple[HashInput, ...]:
        """Canonical tuple the witness signs in step 5 (the coin as its encoding)."""
        return (
            "payment-transcript",
            self.coin.hash_encoding(),
            self.response.r1,
            self.response.r2,
            self.merchant_id,
            self.timestamp,
            self.salt,
        )

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = nest_keys("coin", Coin.WIRE_KEYS) | {
        "r1",
        "r2",
        "merchant_id",
        "timestamp",
        "salt",
    }

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {
            "coin": self.coin.to_wire(),
            "r1": self.response.r1,
            "r2": self.response.r2,
            "merchant_id": self.merchant_id,
            "timestamp": self.timestamp,
            "salt": self.salt,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "PaymentTranscript":
        """Parse URI fields, read from under ``prefix``."""
        return cls(
            coin=Coin.from_wire(fields, prefix + "coin."),
            response=RepresentationResponse(
                r1=as_int(fields[prefix + "r1"]), r2=as_int(fields[prefix + "r2"])
            ),
            merchant_id=as_text(fields[prefix + "merchant_id"]),
            timestamp=as_int(fields[prefix + "timestamp"]),
            salt=as_int(fields[prefix + "salt"]),
        )


@dataclass(frozen=True)
class SignedTranscript:
    """A payment transcript plus the witness's signature — cashable at the broker."""

    transcript: PaymentTranscript
    witness_signature: SchnorrSignature

    def verify_witness_signature(self, params: SystemParams, witness_public: int) -> bool:
        """Verify ``Sig_{M_C}(payment transcript)`` (one ``Ver``)."""
        return schnorr_verify(
            params.group, witness_public, self.witness_signature, self.transcript.hash_encoding()
        )

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = nest_keys(
        "transcript", PaymentTranscript.WIRE_KEYS
    ) | {"wsig_e", "wsig_s"}

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {
            "transcript": self.transcript.to_wire(),
            "wsig_e": self.witness_signature.e,
            "wsig_s": self.witness_signature.s,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "SignedTranscript":
        """Parse URI fields, read from under ``prefix``."""
        return cls(
            transcript=PaymentTranscript.from_wire(fields, prefix + "transcript."),
            witness_signature=SchnorrSignature(
                e=as_int(fields[prefix + "wsig_e"]), s=as_int(fields[prefix + "wsig_s"])
            ),
        )


@dataclass(frozen=True)
class DoubleSpendProof:
    """The extracted representations — a public proof of double-spending.

    The witness releases only the secrets, never the earlier transcript, so
    the identity of the merchant where the coin was first spent stays
    hidden (payment protocol requirement 1).
    """

    coin_hash: int
    x: Representation | None
    y: Representation | None

    def verify(self, params: SystemParams, coin: Coin) -> bool:
        """Check the revealed representations open the coin's commitments.

        Costs two ``Exp`` per revealed representation — the "+2 Exp" the
        paper reports for a merchant handling a double-spend.
        """
        if self.x is None and self.y is None:
            return False
        if not constant_time_eq(self.coin_hash, coin.digest(params)):
            return False
        if self.x is not None and not self.x.opens(params.group, coin.bare.commitment_a):
            return False
        if self.y is not None and not self.y.opens(params.group, coin.bare.commitment_b):
            return False
        return True

    @classmethod
    def from_secrets(cls, coin_hash: int, secrets: RepresentationPair) -> "DoubleSpendProof":
        """Build a proof revealing both representations."""
        return cls(coin_hash=coin_hash, x=secrets.x, y=secrets.y)

    #: The keys :meth:`to_wire` always writes, and the pairs it adds one
    #: each per revealed representation (``x``, ``y``), whole or not at all.
    WIRE_KEYS: ClassVar[frozenset[str]] = frozenset({"coin_hash"})
    WIRE_PAIRS: ClassVar[tuple[frozenset[str], ...]] = (
        frozenset({"x1", "x2"}),
        frozenset({"y1", "y2"}),
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer (absent parts encode as empty)."""
        out: dict[str, object] = {"coin_hash": self.coin_hash}
        if self.x is not None:
            out["x1"] = self.x.k1
            out["x2"] = self.x.k2
        if self.y is not None:
            out["y1"] = self.y.k1
            out["y2"] = self.y.k2
        return out

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "DoubleSpendProof":
        """Parse URI fields, read from under ``prefix``."""
        x = None
        y = None
        if prefix + "x1" in fields:
            x = Representation(as_int(fields[prefix + "x1"]), as_int(fields[prefix + "x2"]))
        if prefix + "y1" in fields:
            y = Representation(as_int(fields[prefix + "y1"]), as_int(fields[prefix + "y2"]))
        return cls(coin_hash=as_int(fields[prefix + "coin_hash"]), x=x, y=y)


# ----------------------------------------------------------------------
# Shared verification helpers (merchant / witness / broker / arbiter)
# ----------------------------------------------------------------------

def verify_commitment_binding(
    params: SystemParams,
    commitment: WitnessCommitment,
    coin: Coin,
    salt: int,
    merchant_id: str,
    witness_public: int,
    now: int,
) -> None:
    """Verify a witness commitment against a coin, salt and merchant.

    Checks, per step 3 of the payment protocol: the commitment covers this
    coin (recomputes the digest: one ``Hash``), the nonce opens to this
    merchant (one ``Hash``), the witness signature verifies (one ``Ver``)
    and the commitment has not expired.

    Raises:
        CommitmentError: on any failure.
    """
    if not constant_time_eq(commitment.coin_hash, coin.digest(params)):
        raise CommitmentError("commitment covers a different coin")
    if not constant_time_eq(commitment.nonce, payment_nonce(params, salt, merchant_id)):
        raise CommitmentError("nonce does not open to this merchant/salt")
    if not commitment.verify(params, witness_public):
        raise CommitmentError("witness signature on commitment failed to verify")
    if now >= commitment.expires_at:
        raise CommitmentError(f"commitment expired at {commitment.expires_at}, now {now}")
    if commitment.witness_id != coin.witness_id:
        raise CommitmentError("commitment issued by a different witness than the coin's")


def verify_payment_response(params: SystemParams, transcript: PaymentTranscript) -> None:
    """Verify the NIZK response: ``A * B^d == g1^r1 * g2^r2``.

    One ``Hash`` (the challenge) plus three ``Exp``.

    Raises:
        InvalidPaymentError: if the representation proof fails.
    """
    d = transcript.challenge(params)
    if not verify_response(
        params.group,
        transcript.coin.bare.commitment_a,
        transcript.coin.bare.commitment_b,
        d,
        transcript.response,
    ):
        raise InvalidPaymentError("representation proof A*B^d == g1^r1*g2^r2 failed")


__all__ = [
    "payment_nonce",
    "CommitmentRequest",
    "WitnessCommitment",
    "PaymentTranscript",
    "SignedTranscript",
    "DoubleSpendProof",
    "verify_commitment_binding",
    "verify_payment_response",
]
