"""Optimistic fair exchange over the network.

Deploys :mod:`repro.core.fair_exchange` onto the simulated WAN:

* every merchant node serves ``fx/offer`` (signed offer + encrypted good)
  and ``fx/deliver`` (the decryption key — which a cheating merchant
  withholds);
* an **arbiter node** (offline in the happy path, as "optimistic"
  demands) serves ``fx/dispute``;
* the client process fetches the offer, runs the *ordinary* payment
  protocol with an offer-bound salt, asks for the key, verifies it
  against the offer's commitment, and only escalates to the arbiter if
  delivery fails.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.exceptions import InvalidPaymentError, ProtocolViolationError
from repro.core.fair_exchange import (
    FairExchangeArbiter,
    FxDispute,
    FxResolution,
    Offer,
    decrypt_good,
    make_offer,
    prepare_bound_payment,
    verify_delivered_key,
)
from repro.core.merchant import PaymentRequest
from repro.core.transcripts import PaymentTranscript, WitnessCommitment
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.serialize import as_int, flatten, strip_prefix
from repro.net.node import Node
from repro.net.services import NetworkDeployment

ARBITER_NODE = "fx-arbiter"


@dataclass(frozen=True)
class FxPurchaseOutcome:
    """What the client ends up with."""

    good: bytes | None
    resolution: FxResolution | None
    refunded: int


@dataclass
class _Listing:
    offer: Offer
    blob: bytes
    key: int
    withhold_key: bool


@dataclass
class FairExchangeService:
    """Network endpoints + client process for fair exchange.

    Args:
        deployment: the running network deployment.
        seed: randomness for offers/keys.
    """

    deployment: NetworkDeployment
    seed: int = 0
    _listings: dict[tuple[str, str], _Listing] = field(default_factory=dict)
    arbiter: FairExchangeArbiter = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        system = self.deployment.system
        self.arbiter = FairExchangeArbiter(
            params=system.params, broker=system.broker
        )
        network = self.deployment.network
        from repro.net.latency import Region

        network.register(Node(ARBITER_NODE, Region.WISCONSIN))
        network.node(ARBITER_NODE).on("fx/dispute", self._handle_dispute)
        for merchant_id in system.merchant_ids:
            node = network.node(merchant_id)
            node.on("fx/offer", self._make_offer_handler(merchant_id))
            node.on("fx/deliver", self._make_deliver_handler(merchant_id))

    # ------------------------------------------------------------------
    # Merchant-side catalogue
    # ------------------------------------------------------------------
    def list_good(
        self,
        merchant_id: str,
        good_id: str,
        price: int,
        good: bytes,
        now: int,
        withhold_key: bool = False,
    ) -> Offer:
        """Put a digital good on sale at ``merchant_id``.

        ``withhold_key=True`` makes this merchant a cheater for the tests:
        it will take payment and never deliver.
        """
        merchant = self.deployment.system.merchant(merchant_id)
        offer, blob, key = make_offer(
            self.deployment.system.params,
            merchant.keypair,
            merchant_id,
            good_id,
            price,
            good,
            now,
            rng=self._rng,
        )
        self._listings[(merchant_id, good_id)] = _Listing(
            offer=offer, blob=blob, key=key, withhold_key=withhold_key
        )
        return offer

    def _make_offer_handler(self, merchant_id: str):
        def handler(payload: dict[str, Any]) -> dict[str, Any]:
            listing = self._listings.get((merchant_id, str(payload["good_id"])))
            if listing is None:
                raise InvalidPaymentError("no such good")
            offer = listing.offer
            return {
                "good_id": offer.good_id,
                "price": offer.price,
                "key_commitment": offer.key_commitment,
                "expires_at": offer.expires_at,
                "sig_e": offer.signature.e,
                "sig_s": offer.signature.s,
                "blob": base64.b64encode(listing.blob).decode("ascii"),
            }

        return handler

    def _make_deliver_handler(self, merchant_id: str):
        def handler(payload: dict[str, Any]) -> dict[str, Any]:
            listing = self._listings.get((merchant_id, str(payload["good_id"])))
            if listing is None:
                raise InvalidPaymentError("no such good")
            if listing.withhold_key:
                raise ProtocolViolationError("merchant refuses to deliver the key")
            return {"key": listing.key}

        return handler

    # ------------------------------------------------------------------
    # Arbiter endpoint
    # ------------------------------------------------------------------
    def _handle_dispute(self, payload: dict[str, Any]) -> dict[str, Any]:
        flat = flatten(payload)
        offer = Offer(
            merchant_id=str(payload["merchant_id"]),
            good_id=str(payload["good_id"]),
            price=as_int(payload["price"]),
            key_commitment=as_int(payload["key_commitment"]),
            expires_at=as_int(payload["expires_at"]),
            signature=SchnorrSignature(
                e=as_int(payload["sig_e"]), s=as_int(payload["sig_s"])
            ),
        )
        transcript = PaymentTranscript.from_wire(strip_prefix(flat, "transcript."))
        system = self.deployment.system
        merchant = system.merchant(offer.merchant_id)
        witness = system.witness(transcript.coin.witness_id)
        listing = self._listings.get((offer.merchant_id, offer.good_id))
        # The arbiter demands the key from the merchant; a withholding
        # merchant stays silent even to the arbiter.
        merchant_key = (
            None if listing is None or listing.withhold_key else listing.key
        )
        dispute = FxDispute(
            offer=offer,
            transcript=transcript,
            opening=as_int(payload["opening"]),
            encrypted_good=b"",
        )
        resolution, released = self.arbiter.resolve(
            dispute,
            merchant.public_key,
            witness,
            merchant_key=merchant_key,
            refund_account=str(payload["refund_account"]),
            now=self.deployment.now(),
        )
        out: dict[str, Any] = {"resolution": resolution.value}
        if released is not None:
            out["key"] = released
        return out

    # ------------------------------------------------------------------
    # Client process
    # ------------------------------------------------------------------
    def purchase_process(
        self,
        client_name: str,
        stored,
        merchant_id: str,
        good_id: str,
    ) -> Generator[Any, Any, FxPurchaseOutcome]:
        """Buy a good fairly: pay, demand the key, escalate if cheated."""
        deployment = self.deployment
        system = deployment.system
        params = system.params
        client = deployment.clients[client_name]
        network = deployment.network

        offer_reply = flatten(
            (yield network.rpc(client_name, merchant_id, "fx/offer", {"good_id": good_id}))
        )
        offer = Offer(
            merchant_id=merchant_id,
            good_id=good_id,
            price=as_int(offer_reply["price"]),
            key_commitment=as_int(offer_reply["key_commitment"]),
            expires_at=as_int(offer_reply["expires_at"]),
            signature=SchnorrSignature(
                e=as_int(offer_reply["sig_e"]), s=as_int(offer_reply["sig_s"])
            ),
        )
        merchant_public = system.merchant(merchant_id).public_key
        if not offer.verify(params, merchant_public):
            raise InvalidPaymentError("merchant offer signature invalid")
        blob = base64.b64decode(str(offer_reply["blob"]))

        # Ordinary payment protocol, offer-bound salt.
        request, pending, opening = prepare_bound_payment(
            params, client, stored, offer, deployment.now()
        )
        witness_id = stored.coin.witness_id
        commit_reply = flatten(
            (yield network.rpc(client_name, witness_id, "witness/commit", request.to_wire()))
        )
        commitment = WitnessCommitment.from_wire(strip_prefix(commit_reply, "commitment."))
        witness_public = system.merchant(merchant_id).witness_keys[witness_id]
        transcript = client.build_payment(
            pending, commitment, witness_public, deployment.now()
        )
        pay_reply = flatten(
            (yield network.rpc(
                client_name,
                merchant_id,
                "pay",
                {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()},
            ))
        )
        if pay_reply.get("status") != "service":
            raise InvalidPaymentError(f"payment failed: {pay_reply}")
        client.mark_spent(stored)

        # Happy path: ask the merchant for the key.
        try:
            deliver_reply = flatten(
                (yield network.rpc(
                    client_name, merchant_id, "fx/deliver", {"good_id": good_id}
                ))
            )
            key = as_int(deliver_reply["key"])
            if verify_delivered_key(params, offer, key):
                return FxPurchaseOutcome(
                    good=decrypt_good(key, blob), resolution=None, refunded=0
                )
        except ProtocolViolationError:
            pass  # the merchant refused; escalate

        # Dispute path: hand everything to the arbiter.
        refund_account = f"refund:{client_name}"
        dispute_reply = flatten(
            (yield network.rpc(
                client_name,
                ARBITER_NODE,
                "fx/dispute",
                {
                    "merchant_id": offer.merchant_id,
                    "good_id": offer.good_id,
                    "price": offer.price,
                    "key_commitment": offer.key_commitment,
                    "expires_at": offer.expires_at,
                    "sig_e": offer.signature.e,
                    "sig_s": offer.signature.s,
                    "transcript": transcript.to_wire(),
                    "opening": opening,
                    "refund_account": refund_account,
                },
            ))
        )
        resolution = FxResolution(str(dispute_reply["resolution"]))
        if resolution is FxResolution.KEY_RELEASED:
            key = as_int(dispute_reply["key"])
            return FxPurchaseOutcome(
                good=decrypt_good(key, blob), resolution=resolution, refunded=0
            )
        refunded = (
            offer.price if resolution is FxResolution.CLIENT_REFUNDED else 0
        )
        return FxPurchaseOutcome(good=None, resolution=resolution, refunded=refunded)


__all__ = ["FairExchangeService", "FxPurchaseOutcome", "ARBITER_NODE"]
