"""The witness service (the coin's designated double-spend guard).

Every merchant runs one of these alongside its storefront (the paper runs
them "on the same physical hardware, but not in the same memory space").
The witness keeps two small databases:

* *commitments* — one outstanding commitment per coin hash; step 2 of the
  payment protocol forbids issuing a second commitment before the first
  expires, which is what closes the concurrent-double-spend window;
* *spent coins* — for each coin it has signed a transcript for, either the
  first transcript (salted) or, once a second spend attempt appears, just
  the extracted representations ("keeps only this value along with hash of
  the coin, dropping all transcripts").

A ``faulty=True`` witness signs conflicting transcripts anyway — the
adversary used by the deposit-protocol tests (Algorithm 3 case 2-b) and the
security benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.core.exceptions import (
    CommitmentError,
    CommitmentOutstandingError,
    DoubleSpendError,
    InvalidPaymentError,
    WrongWitnessError,
)
from repro.core.params import SystemParams
from repro.core.transcripts import (
    CommitmentRequest,
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
    payment_nonce,
)
from repro.core.witness_ranges import verify_entry_matches
from repro.crypto.hashing import constant_time_eq
from repro.crypto.numbers import random_bits
from repro.crypto.representation import extract_representations
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.serialize import WireFields, as_int, pack_batch, split_batch

if TYPE_CHECKING:
    from repro.core.persistence import WitnessJournal


#: Default commitment lifetime ``t_e - now`` in seconds. Long enough for a
#: WAN round trip plus service delivery, short enough that an abandoned
#: commitment does not lock the coin out for long.
DEFAULT_COMMITMENT_LIFETIME = 120


#: Kind tag of a stored part of ``v`` -> how its text is read back.
_PART_KINDS: dict[str, Callable[[str], object]] = {
    "int": as_int,
    "str": str,
    "bytes": bytes.fromhex,
}


@dataclass
class _CommitmentRecord:
    """Witness-side state for one outstanding commitment."""

    commitment: WitnessCommitment
    v: tuple[object, ...]

    def to_record(self) -> dict[str, object]:
        """The commitment as stored at rest, its committed value ``v`` with it.

        Each part of ``v`` carries its type as a kind tag, so an ``int`` and
        a ``str`` part come back as what they were; the one ``bytes`` part
        (the salted transcript's hash input) travels as hex.

        Raises:
            TypeError: ``v`` holds a part that is not ``int``/``str``/``bytes``.
        """
        parts: list[dict[str, object]] = [
            {"kind": type(part).__name__, "value": part.hex() if isinstance(part, bytes) else part}
            for part in _flatten_v(self.v)
        ]
        return {"commitment": self.commitment.to_wire(), "parts": pack_batch("p", parts)}

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_CommitmentRecord":
        """Parse :meth:`to_record` fields, read from under ``prefix``.

        Raises:
            KeyError: a part of ``v`` has an unknown kind tag.
        """
        return cls(
            commitment=WitnessCommitment.from_wire(fields, prefix + "commitment."),
            v=tuple(
                _PART_KINDS[part["kind"]](part["value"])
                for _, part in split_batch(fields, prefix + "parts", "p")
            ),
        )


@dataclass
class _SpentRecord:
    """Witness-side state for one spent coin."""

    transcript: PaymentTranscript | None
    transcript_salt: int | None
    proof: DoubleSpendProof | None = None

    def to_record(self) -> dict[str, object]:
        """The spent-coin record as stored at rest (an absent part is an absent key)."""
        out: dict[str, object] = {}
        if self.transcript is not None:
            out["transcript"] = self.transcript.to_wire()
        if self.transcript_salt is not None:
            out["transcript_salt"] = self.transcript_salt
        if self.proof is not None:
            out["proof"] = self.proof.to_wire()
        return out

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_SpentRecord":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        salt = fields.get(prefix + "transcript_salt")
        return cls(
            transcript=PaymentTranscript.from_wire(fields, prefix + "transcript.")
            if prefix + "transcript.timestamp" in fields
            else None,
            transcript_salt=None if salt is None else as_int(salt),
            proof=DoubleSpendProof.from_wire(fields, prefix + "proof.")
            if prefix + "proof.coin_hash" in fields
            else None,
        )


@dataclass
class WitnessService:
    """The witness role of one merchant.

    Args:
        params: system parameters.
        merchant_id: this merchant's identifier ``I_M``.
        keypair: the merchant's Schnorr key pair (same key signs
            commitments and transcripts).
        broker_sign_public: the broker's signature-verification key, needed
            to validate witness-range entries attached to coins.
        faulty: when True, the witness violates the protocol by signing a
            second transcript for an already-spent coin.
        rng: optional deterministic randomness source.
    """

    params: SystemParams
    merchant_id: str
    keypair: SchnorrKeyPair
    broker_sign_public: int
    broker_blind_public: int
    faulty: bool = False
    commitment_lifetime: int = DEFAULT_COMMITMENT_LIFETIME
    rng: random.Random | None = None
    _commitments: dict[int, _CommitmentRecord] = field(default_factory=dict)
    _spent: dict[int, _SpentRecord] = field(default_factory=dict)
    signed_count: int = 0
    #: Durability hook (see
    #: :func:`repro.core.persistence.attach_witness_store`): when set,
    #: commitment/spent-table mutations are journaled before returning.
    journal: "WitnessJournal | None" = field(default=None, repr=False, compare=False)

    @property
    def public_key(self) -> int:
        """The witness's signature-verification key."""
        return self.keypair.public

    # ------------------------------------------------------------------
    # Step 2: commitment issuance
    # ------------------------------------------------------------------
    def request_commitment(self, request: CommitmentRequest, now: int) -> WitnessCommitment:
        """Issue a signed commitment for a pending payment.

        The committed value ``v`` is a fresh random value when the coin is
        unseen, or the prior salted transcript / extracted secrets when the
        coin was already spent — so a later reveal of ``v`` proves the
        witness acted on the knowledge it had at commitment time.

        Costs one ``Hash`` (``h(v)``) and one ``Sig``.

        Raises:
            CommitmentOutstandingError: an unexpired commitment for this
                coin already exists (with a different nonce).
        """
        existing = self._commitments.get(request.coin_hash)
        if existing is not None and now < existing.commitment.expires_at:
            if constant_time_eq(existing.commitment.nonce, request.nonce):
                return existing.commitment
            obs.counter_inc("witness_commitment_conflicts_total")
            raise CommitmentOutstandingError(
                f"commitment on coin {request.coin_hash:#x} outstanding until "
                f"{existing.commitment.expires_at}"
            )
        obs.counter_inc("witness_commitments_total")
        v = self._committed_value(request.coin_hash)
        v_hash = self.params.hashes.h(*_flatten_v(v))
        expires_at = now + self.commitment_lifetime
        commitment = WitnessCommitment(
            witness_id=self.merchant_id,
            coin_hash=request.coin_hash,
            nonce=request.nonce,
            v_hash=v_hash,
            expires_at=expires_at,
            signature=self.keypair.sign(
                "commit",
                self.merchant_id,
                request.coin_hash,
                request.nonce,
                v_hash,
                expires_at,
                rng=self.rng,
            ),
        )
        record = _CommitmentRecord(commitment=commitment, v=v)
        self._commitments[request.coin_hash] = record
        if self.journal is not None:
            self.journal.record_commitment(request.coin_hash, record)
        return commitment

    def _committed_value(self, coin_hash: int) -> tuple[object, ...]:
        """Build the evidence tuple ``v`` for a commitment."""
        spent = self._spent.get(coin_hash)
        if spent is None:
            return ("fresh", random_bits(128, self.rng))
        if spent.proof is not None:
            proof = spent.proof
            parts: list[int] = []
            if proof.x is not None:
                parts += [proof.x.k1, proof.x.k2]
            if proof.y is not None:
                parts += [proof.y.k1, proof.y.k2]
            return ("secrets", *parts)
        assert spent.transcript is not None and spent.transcript_salt is not None
        # The transcript's encoding is a *value* here, hashed as a bytes
        # part, not spliced: ``h(v)`` commits to it as one opaque blob.
        return (
            "salted-transcript",
            spent.transcript_salt,
            spent.transcript.hash_encoding().data,
        )

    # ------------------------------------------------------------------
    # Steps 4-5: transcript verification and signing
    # ------------------------------------------------------------------
    def sign_transcript(self, transcript: PaymentTranscript, now: int) -> SignedTranscript:
        """Verify a payment transcript and sign it (or prove double-spend).

        The happy path costs 7 ``Exp`` + 5 ``Hash`` + 1 ``Sig`` + 1 ``Ver``
        here (plus the 1 ``Hash`` + 1 ``Sig`` of the earlier commitment:
        the witness's Table 1 payment row).

        Raises:
            DoubleSpendError: the coin was spent before the commitment; the
                attached proof carries the extracted representations.
            WrongWitnessError: this witness is not the coin's witness.
            CommitmentError: nonce/commitment mismatch.
            InvalidPaymentError: signature or NIZK failure.
        """
        coin = transcript.coin
        digest = coin.digest(self.params)
        record = self._commitments.get(digest)
        if record is None:
            raise CommitmentError("no outstanding commitment for this coin")
        expected_nonce = payment_nonce(self.params, transcript.salt, transcript.merchant_id)
        if not constant_time_eq(record.commitment.nonce, expected_nonce):
            raise CommitmentError("nonce does not open to the depositing merchant")

        # Double-spend short-circuit (Section 7): an already-spent coin is
        # refused *before* any full verification — the witness is "spared
        # all significant crypto operations" (stored secrets) or does
        # "only two exponentiations" (checking the fresh extraction).
        spent = self._spent.get(digest)
        if spent is not None and not self.faulty:
            obs.counter_inc("double_spend_detected")
            raise DoubleSpendError(self._double_spend_proof(digest, spent, transcript))

        coin.ensure_valid_signature(self.params, self.broker_blind_public)
        coin.ensure_spendable(now)
        verify_entry_matches(
            self.params,
            self.broker_sign_public,
            coin.witness_entry,
            digest,
            coin.info.list_version,
        )
        if coin.witness_id != self.merchant_id:
            raise WrongWitnessError(
                f"coin is assigned to {coin.witness_id!r}, not to {self.merchant_id!r}"
            )
        from repro.core.transcripts import verify_payment_response

        verify_payment_response(self.params, transcript)

        if spent is None:
            self._spent[digest] = _SpentRecord(
                transcript=transcript, transcript_salt=random_bits(128, self.rng)
            )
        signature = self.keypair.sign(transcript.hash_encoding(), rng=self.rng)
        self.signed_count += 1
        obs.counter_inc("witness_transcripts_signed_total")
        del self._commitments[digest]
        if self.journal is not None:
            # One durability unit: a crash keeps both halves or neither.
            with self.journal.operation():
                self.journal.record_spent(digest, self._spent[digest])
                self.journal.drop_commitment(digest)
        return SignedTranscript(transcript=transcript, witness_signature=signature)

    def _double_spend_proof(
        self, digest: int, spent: _SpentRecord, transcript: PaymentTranscript
    ) -> DoubleSpendProof:
        """Extract (or retrieve) the coin secrets proving a double-spend.

        The first detection extracts the representations from the stored
        and offered transcripts, then drops the stored transcript (keeping
        only the secrets, as the paper prescribes — this also hides where
        the coin was first spent from later inquiries).
        """
        if spent.proof is not None:
            return spent.proof
        assert spent.transcript is not None
        first = spent.transcript
        secrets = extract_representations(
            first.challenge(self.params),
            first.response,
            transcript.challenge(self.params),
            transcript.response,
            self.params.group.q,
        )
        # Confirm the extraction opens A before publishing it (two ``Exp``
        # — the paper's "only two exponentiations"). A failure means the
        # *offered* transcript was junk, not that the coin is clean.
        if not secrets.x.opens(self.params.group, first.coin.bare.commitment_a):
            raise InvalidPaymentError(
                "offered transcript is inconsistent; extraction does not open A"
            )
        # Only the representation of A is released; "(x1, x2) and/or
        # (y1, y2)" suffices as proof and reveals no more than necessary.
        proof = DoubleSpendProof(coin_hash=digest, x=secrets.x, y=None)
        spent.proof = proof
        spent.transcript = None
        spent.transcript_salt = None
        if self.journal is not None:
            self.journal.record_spent(digest, spent)
        return proof

    # ------------------------------------------------------------------
    # Dispute support
    # ------------------------------------------------------------------
    def reveal_commitment_value(self, coin_hash: int) -> tuple[object, ...]:
        """Reveal the ``v`` behind the current commitment on ``coin_hash``.

        Used in the race-condition dispute of Section 5: if a merchant is
        refused with a double-spend proof *after* holding a commitment, it
        may demand ``v``; a ``v`` that contains neither a prior transcript
        nor the secrets proves the witness violated the protocol.

        Raises:
            CommitmentError: no commitment is outstanding for this coin.
        """
        record = self._commitments.get(coin_hash)
        if record is None:
            raise CommitmentError("no outstanding commitment to reveal")
        return record.v

    def has_seen(self, coin_hash: int) -> bool:
        """True iff this witness has signed a transcript for the coin."""
        return coin_hash in self._spent

    def expire_commitments(self, now: int) -> int:
        """Drop expired commitments; returns how many were removed."""
        expired = [
            coin_hash
            for coin_hash, record in self._commitments.items()
            if now >= record.commitment.expires_at
        ]
        for coin_hash in expired:
            del self._commitments[coin_hash]
            if self.journal is not None:
                self.journal.drop_commitment(coin_hash)
        return len(expired)

    def purge_spent(self, now: int, hard_expiry_of: dict[int, int] | None = None) -> int:
        """Garbage-collect spent records for coins past their hard expiry.

        Args:
            now: current time.
            hard_expiry_of: mapping from coin hash to hard expiry; records
                whose coin's transcript is retained carry the expiry
                themselves, extracted-secret records need the hint.

        Returns:
            Number of records removed.
        """
        removable: list[int] = []
        for coin_hash, record in self._spent.items():
            if record.transcript is not None:
                if record.transcript.coin.info.is_void(now):
                    removable.append(coin_hash)
            elif hard_expiry_of and now >= hard_expiry_of.get(coin_hash, float("inf")):
                removable.append(coin_hash)
        for coin_hash in removable:
            del self._spent[coin_hash]
            if self.journal is not None:
                self.journal.drop_spent(coin_hash)
        return len(removable)


def _flatten_v(v: tuple[object, ...]) -> tuple[int | str | bytes, ...]:
    """Coerce a committed-value tuple into hashable protocol inputs."""
    out: list[int | str | bytes] = []
    for part in v:
        if isinstance(part, (int, str, bytes)):
            out.append(part)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected committed value part {part!r}")
    return tuple(out)


__all__ = ["WitnessService", "DEFAULT_COMMITMENT_LIFETIME"]
