"""The merchant role: accept payments, verify everything, deposit later.

Step 3 of the payment protocol is the merchant's big verification moment:
broker signature on the coin, witness assignment, witness commitment
(binding via the nonce), and the representation NIZK. Only a request that
passed all of it is accepted (a transport may put the transcript on the
wire to the witness while the checks run — see
:meth:`Merchant.may_forward_early`); only with the witness's signature in
hand does it deliver the service; and the signed transcript is what it
later cashes at the broker (Algorithm 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.core.coin import Coin
from repro.core.exceptions import DoubleSpendError, InvalidPaymentError
from repro.core.params import SystemParams
from repro.core.transcripts import (
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
    verify_commitment_binding,
    verify_payment_response,
)
from repro.core.witness_ranges import verify_entry_matches
from repro.crypto.schnorr import SchnorrKeyPair


@dataclass(frozen=True)
class PaymentRequest:
    """Everything the client hands the merchant in step 3."""

    transcript: PaymentTranscript
    commitment: WitnessCommitment


@dataclass
class Merchant:
    """One storefront merchant.

    Args:
        params: system parameters.
        merchant_id: this merchant's identifier ``I_M``.
        keypair: Schnorr key pair registered with the broker.
        broker_blind_public: the broker's blind-signature key ``y`` (coin
            verification).
        broker_sign_public: the broker's plain signature key (witness-range
            verification).
        witness_keys: directory mapping merchant ids to their public keys;
            in deployment this comes from the broker's signed merchant
            list, here it is filled in at registration time.
    """

    params: SystemParams
    merchant_id: str
    keypair: SchnorrKeyPair
    broker_blind_public: int
    broker_sign_public: int
    witness_keys: dict[str, int] = field(default_factory=dict)
    rng: random.Random | None = None
    _seen_bare_coins: set[object] = field(default_factory=set)
    #: Accepted-but-undeposited transcripts, in acceptance order (a dict
    #: used as an ordered set: membership by hash, not by list scan).
    _pending: dict[SignedTranscript, None] = field(default_factory=dict)

    @property
    def public_key(self) -> int:
        """The merchant's signature-verification key."""
        return self.keypair.public

    def may_forward_early(self, request: PaymentRequest, now: int) -> bool:
        """Whether the transcript may go to the witness before it is verified.

        Comparisons only — no ``Exp``, ``Hash`` or ``Ver`` — over every
        check of :meth:`verify_payment_request` that an *honest* payer's
        request can fail: wrong shop, unknown witness, a commitment from
        another witness, a slow payer (expired commitment), an expired
        coin, a replay at this storefront. When it holds, what is left —
        broker signature, range entry, commitment hash/nonce/signature,
        NIZK — fails only for a payer who forged the request, and that
        payer can burn the same coin by calling the witness directly. It
        grants nothing: :meth:`verify_payment_request` still runs whole.
        """
        coin = request.transcript.coin
        commitment = request.commitment
        return (
            request.transcript.merchant_id == self.merchant_id
            and coin.witness_id in self.witness_keys
            and commitment.witness_id == coin.witness_id
            and now < commitment.expires_at
            and coin.info.is_spendable(now)
            and coin.bare not in self._seen_bare_coins
        )

    def verify_payment_request(self, request: PaymentRequest, now: int) -> None:
        """Run every local check of step 3 before involving the witness.

        Cost: 7 ``Exp`` + 6 ``Hash`` + 2 ``Ver`` (coin signature 4 ``Exp``
        2 ``Hash``; witness assignment 1 ``Hash`` 1 ``Ver``; commitment
        binding 2 ``Hash`` 1 ``Ver``; NIZK 1 ``Hash`` 3 ``Exp``) — together
        with :meth:`accept_signed_transcript`'s 1 ``Ver`` this is the
        merchant's payment row of Table 1.

        Raises:
            InvalidCoinError, ExpiredCoinError, WrongWitnessError,
            CommitmentError, InvalidPaymentError: per failed check.
        """
        transcript = request.transcript
        coin = transcript.coin
        if transcript.merchant_id != self.merchant_id:
            raise InvalidPaymentError("payment transcript names a different merchant")
        coin.ensure_valid_signature(self.params, self.broker_blind_public)
        coin.ensure_spendable(now)
        digest = coin.digest(self.params)
        verify_entry_matches(
            self.params,
            self.broker_sign_public,
            coin.witness_entry,
            digest,
            coin.info.list_version,
        )
        witness_public = self._witness_public(coin)
        verify_commitment_binding(
            self.params,
            request.commitment,
            coin,
            transcript.salt,
            self.merchant_id,
            witness_public,
            now,
        )
        verify_payment_response(self.params, transcript)
        if coin.bare in self._seen_bare_coins:
            raise InvalidPaymentError("merchant already accepted a payment with this coin")
        obs.counter_inc("merchant_payments_verified_total")

    def accept_signed_transcript(self, signed: SignedTranscript, now: int) -> None:
        """Verify the witness's signature (1 ``Ver``) and store for deposit.

        Raises:
            InvalidPaymentError: bad witness signature.
        """
        witness_public = self._witness_public(signed.transcript.coin)
        if not signed.verify_witness_signature(self.params, witness_public):
            raise InvalidPaymentError("witness signature on transcript failed to verify")
        self._pending[signed] = None
        self._seen_bare_coins.add(signed.transcript.coin.bare)

    def handle_double_spend_proof(self, proof: DoubleSpendProof, coin: Coin) -> None:
        """Validate a double-spend refusal from the witness.

        Verifying the revealed representation(s) against ``A``/``B`` costs
        the two extra exponentiations the paper reports for the
        double-spend case (and the merchant skips the transcript ``Ver``).

        Raises:
            InvalidPaymentError: the proof does not actually open the
                coin's commitments — the witness refused without evidence,
                which is itself an arbitrable protocol violation.
        """
        if not proof.verify(self.params, coin):
            raise InvalidPaymentError("witness returned an invalid double-spend proof")
        obs.counter_inc("merchant_double_spend_refusals_total")
        raise DoubleSpendError(proof)

    def pending_deposits(self) -> list[SignedTranscript]:
        """Signed transcripts accepted but not yet deposited, oldest first."""
        return list(self._pending)

    def mark_deposited(self, signed: SignedTranscript) -> None:
        """Record a successful deposit: the transcript is no longer kept."""
        self._pending.pop(signed, None)

    def _witness_public(self, coin: Coin) -> int:
        """Look up the public key of the coin's witness.

        Raises:
            InvalidPaymentError: unknown witness (not in the merchant
                directory).
        """
        try:
            return self.witness_keys[coin.witness_id]
        except KeyError:
            raise InvalidPaymentError(
                f"unknown witness merchant {coin.witness_id!r}"
            ) from None


__all__ = ["Merchant", "PaymentRequest"]
