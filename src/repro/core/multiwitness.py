"""Multi-witness coins: the paper's k-of-n availability extension.

Section 4: *"To decrease probability of such event [an unusable coin due
to witness downtime], one can use, say, three witnesses per coin and
require any two of them to sign."*

A multi-witness coin derives ``n`` *distinct* witnesses from the bare
coin — witness ``i`` is the merchant whose range contains
``h(bare coin || i)`` — and a payment is valid once any ``k`` of them have
signed the (single, shared) transcript. The challenge binds the bare coin,
merchant and time only, so all ``k`` signatures cover the same response
and a double-spend still hands any involved witness two distinct
challenges to extract from.

This module is deliberately parallel to the single-witness protocol
rather than layered on it: the single-witness path stays exactly as the
paper specifies, and the extension is measured against it by the
availability ablation benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.coin import BareCoin
from repro.core.exceptions import (
    CommitmentError,
    DoubleSpendError,
    InvalidPaymentError,
    WrongWitnessError,
)
from repro.core.params import SystemParams
from repro.core.transcripts import DoubleSpendProof
from repro.core.witness_ranges import SignedWitnessEntry, WitnessAssignmentTable
from repro.crypto.hashing import HashInput
from repro.crypto.representation import (
    RepresentationPair,
    RepresentationResponse,
    extract_representations,
    respond,
    verify_response,
)
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, verify as schnorr_verify

#: Safety bound on witness-derivation probing (duplicate merchants skip an
#: index; with fewer merchants than requested witnesses this limit trips).
_MAX_DERIVATION_PROBES = 256


def witness_digest(params: SystemParams, bare: BareCoin, index: int) -> int:
    """``h(bare coin || index)`` — the index-th witness selector."""
    return params.hashes.h(bare.hash_encoding(), "witness-index", index) % (
        params.witness_hash_space
    )


def assign_witnesses(
    params: SystemParams,
    table: WitnessAssignmentTable,
    bare: BareCoin,
    n: int,
) -> tuple[SignedWitnessEntry, ...]:
    """Derive the coin's ``n`` distinct witnesses from the table.

    Indices whose digest lands on an already-chosen merchant are skipped
    (both parties recompute the same deterministic walk, so the assignment
    stays non-malleable and verifiable).

    Raises:
        WrongWitnessError: fewer than ``n`` distinct merchants exist.
    """
    if n < 1:
        raise ValueError("a coin needs at least one witness")
    if n > len(table.entries):
        raise WrongWitnessError(
            f"cannot assign {n} distinct witnesses from {len(table.entries)} merchants"
        )
    chosen: list[SignedWitnessEntry] = []
    seen: set[str] = set()
    for index in range(_MAX_DERIVATION_PROBES):
        entry = table.witness_for(witness_digest(params, bare, index))
        if entry.merchant_id in seen:
            continue
        chosen.append(entry)
        seen.add(entry.merchant_id)
        if len(chosen) == n:
            return tuple(chosen)
    raise WrongWitnessError("witness derivation failed to find enough distinct merchants")


@dataclass(frozen=True)
class MultiWitnessCoin:
    """A bare coin with its ``n`` signed witness entries and threshold ``k``."""

    bare: BareCoin
    entries: tuple[SignedWitnessEntry, ...]
    threshold: int

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.entries):
            raise ValueError("threshold must satisfy 1 <= k <= n")

    @property
    def witness_ids(self) -> tuple[str, ...]:
        """The ``n`` assigned witness merchants."""
        return tuple(entry.merchant_id for entry in self.entries)

    def digest(self, params: SystemParams) -> int:
        """``h(bare coin)`` — keys the witnesses' databases."""
        return self.bare.digest(params)

    def verify_assignment(
        self,
        params: SystemParams,
        table: WitnessAssignmentTable,
        broker_sign_public: int,
    ) -> None:
        """Recompute the derivation walk and check each entry signature.

        Raises:
            WrongWitnessError: the attached entries are not the ones the
                derivation produces, or a signature is invalid.
        """
        expected = assign_witnesses(params, table, self.bare, len(self.entries))
        if tuple(e.merchant_id for e in expected) != self.witness_ids:
            raise WrongWitnessError("attached witness set does not match derivation")
        for entry in self.entries:
            if not entry.verify(params, broker_sign_public):
                raise WrongWitnessError("broker signature on a witness entry is invalid")


@dataclass(frozen=True)
class MultiWitnessTranscript:
    """The single payment transcript all ``k`` witnesses co-sign."""

    coin: MultiWitnessCoin
    response: RepresentationResponse
    merchant_id: str
    timestamp: int

    def challenge(self, params: SystemParams) -> int:
        """``d = H0(bare, "multi", I_M, date)`` — shared across witnesses."""
        return params.hashes.H0(
            self.coin.bare.hash_encoding(), "multi", self.merchant_id, self.timestamp
        )

    def hash_parts(self) -> tuple[HashInput, ...]:
        """The message tuple each witness signs."""
        return (
            "multi-witness-transcript",
            self.coin.bare.hash_encoding(),
            self.response.r1,
            self.response.r2,
            self.merchant_id,
            self.timestamp,
        )

    def verify_response_proof(self, params: SystemParams) -> bool:
        """Check ``A * B^d == g1^r1 * g2^r2``."""
        return verify_response(
            params.group,
            self.coin.bare.commitment_a,
            self.coin.bare.commitment_b,
            self.challenge(params),
            self.response,
        )


@dataclass
class MultiWitnessService:
    """One witness's signer for multi-witness coins.

    Keeps the same two databases as the single-witness service (spent
    coins, at-most-one outstanding commitment) but signs the shared
    transcript format. Availability is modelled with the ``up`` flag.
    """

    params: SystemParams
    merchant_id: str
    keypair: SchnorrKeyPair
    broker_sign_public: int
    up: bool = True
    rng: random.Random | None = None
    _spent: dict[int, MultiWitnessTranscript | DoubleSpendProof] = field(default_factory=dict)

    def sign(self, transcript: MultiWitnessTranscript, now: int) -> SchnorrSignature:
        """Verify and sign the shared transcript.

        Raises:
            CommitmentError: this witness is offline (models downtime).
            WrongWitnessError: this merchant is not one of the coin's
                witnesses.
            InvalidPaymentError: proof failure.
            DoubleSpendError: the coin was already signed for another
                merchant/time; the proof carries extracted secrets.
        """
        if not self.up:
            raise CommitmentError(f"witness {self.merchant_id} is offline")
        if self.merchant_id not in transcript.coin.witness_ids:
            raise WrongWitnessError(
                f"{self.merchant_id!r} is not a witness of this coin"
            )
        if not transcript.coin.bare.info.is_spendable(now):
            raise InvalidPaymentError("coin is past its soft expiry")
        if not transcript.verify_response_proof(self.params):
            raise InvalidPaymentError("representation proof failed")
        digest = transcript.coin.digest(self.params)
        existing = self._spent.get(digest)
        if existing is not None:
            raise DoubleSpendError(self._proof(digest, existing, transcript))
        self._spent[digest] = transcript
        return self.keypair.sign(*transcript.hash_parts(), rng=self.rng)

    def _proof(
        self,
        digest: int,
        existing: MultiWitnessTranscript | DoubleSpendProof,
        offered: MultiWitnessTranscript,
    ) -> DoubleSpendProof:
        if isinstance(existing, DoubleSpendProof):
            return existing
        d1 = existing.challenge(self.params)
        d2 = offered.challenge(self.params)
        if d1 == d2:
            # Same merchant, same second: replay of the identical payment,
            # nothing to extract — report the original refusal shape.
            raise InvalidPaymentError("transcript replay (identical challenge)")
        secrets = extract_representations(
            d1, existing.response, d2, offered.response, self.params.group.q
        )
        proof = DoubleSpendProof(coin_hash=digest, x=secrets.x, y=None)
        self._spent[digest] = proof
        return proof


@dataclass(frozen=True)
class MultiWitnessSpendResult:
    """Outcome of a k-of-n spend attempt."""

    succeeded: bool
    signatures: dict[str, SchnorrSignature]
    contacted: tuple[str, ...]
    double_spend_proof: DoubleSpendProof | None = None


def spend_multi(
    params: SystemParams,
    coin: MultiWitnessCoin,
    secrets: RepresentationPair,
    witnesses: dict[str, MultiWitnessService],
    merchant_id: str,
    now: int,
) -> MultiWitnessSpendResult:
    """Attempt a k-of-n payment, contacting witnesses in derivation order.

    Succeeds as soon as ``k`` signatures are collected; offline witnesses
    are skipped (that is the whole point of the extension). A double-spend
    refusal from any witness aborts the attempt with the proof.
    """
    d = params.hashes.H0(coin.bare.hash_encoding(), "multi", merchant_id, now)
    transcript = MultiWitnessTranscript(
        coin=coin,
        response=respond(secrets, d, params.group.q),
        merchant_id=merchant_id,
        timestamp=now,
    )
    signatures: dict[str, SchnorrSignature] = {}
    contacted: list[str] = []
    for witness_id in coin.witness_ids:
        if len(signatures) >= coin.threshold:
            break
        service = witnesses.get(witness_id)
        contacted.append(witness_id)
        if service is None or not service.up:
            continue
        try:
            signatures[witness_id] = service.sign(transcript, now)
        except DoubleSpendError as refusal:
            return MultiWitnessSpendResult(
                succeeded=False,
                signatures=signatures,
                contacted=tuple(contacted),
                double_spend_proof=refusal.proof,
            )
        except CommitmentError:
            continue
    succeeded = len(signatures) >= coin.threshold
    return MultiWitnessSpendResult(
        succeeded=succeeded, signatures=signatures, contacted=tuple(contacted)
    )


def verify_quorum(
    params: SystemParams,
    coin: MultiWitnessCoin,
    transcript: MultiWitnessTranscript,
    signatures: dict[str, SchnorrSignature],
    witness_keys: dict[str, int],
) -> bool:
    """Broker/merchant check: ``k`` valid signatures from assigned witnesses."""
    valid = 0
    for witness_id, signature in signatures.items():
        if witness_id not in coin.witness_ids:
            continue
        public = witness_keys.get(witness_id)
        if public is None:
            continue
        if schnorr_verify(params.group, public, signature, *transcript.hash_parts()):
            valid += 1
    return valid >= coin.threshold


__all__ = [
    "witness_digest",
    "assign_witnesses",
    "MultiWitnessCoin",
    "MultiWitnessTranscript",
    "MultiWitnessService",
    "MultiWitnessSpendResult",
    "spend_multi",
    "verify_quorum",
]
