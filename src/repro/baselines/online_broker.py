"""Baseline: Chaum-style online clearing (CRYPTO 1982).

The first untraceable e-cash design "required an on-line broker to clear
coins before merchants would provide their services" (Section 2). We reuse
the same Abe-Okamoto withdrawal as the main scheme so coins are identical;
the only difference is the payment path: the merchant synchronously asks
the *broker* — not a witness — whether the coin was spent, and the broker
records it.

Properties demonstrated by the baseline benchmarks:

* detection is perfect (the broker sees every coin), but
* the broker is a single point of failure: if it is down, **no** payment
  anywhere can complete, whereas in the witness scheme only the coins of
  the affected witness stall; and
* every payment in the whole economy adds load to one server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.broker import Broker
from repro.core.client import StoredCoin
from repro.core.coin import BareCoin
from repro.core.exceptions import DoubleSpendError, InvalidCoinError, ServiceUnavailableError
from repro.core.params import SystemParams
from repro.core.transcripts import DoubleSpendProof, PaymentTranscript


@dataclass(frozen=True)
class OnlineClearingResult:
    """Outcome of one online clearing request."""

    accepted: bool
    broker_queries: int


@dataclass
class OnlineBroker:
    """The online clearinghouse bolted onto a standard :class:`Broker`.

    Args:
        params: system parameters.
        broker: the issuing broker (reused for withdrawal and keys).
    """

    params: SystemParams
    broker: Broker
    online: bool = True
    queries_served: int = 0
    _spent: dict[BareCoin, PaymentTranscript] = field(default_factory=dict)

    def clear_payment(self, transcript: PaymentTranscript) -> OnlineClearingResult:
        """Synchronously clear a payment (merchant -> broker, per payment).

        Raises:
            ServiceUnavailableError: the broker is offline — the baseline's
                single point of failure.
            InvalidCoinError: bad coin signature.
            DoubleSpendError: the coin was already cleared.
        """
        if not self.online:
            raise ServiceUnavailableError("online broker is down; no payment can clear")
        self.queries_served += 1
        coin = transcript.coin
        if not coin.bare.verify_signature(self.params, self.broker.blind_public):
            raise InvalidCoinError("broker signature on coin failed to verify")
        from repro.core.transcripts import verify_payment_response

        verify_payment_response(self.params, transcript)
        previous = self._spent.get(coin.bare)
        if previous is not None:
            from repro.crypto.representation import extract_representations

            secrets = extract_representations(
                previous.challenge(self.params),
                previous.response,
                transcript.challenge(self.params),
                transcript.response,
                self.params.group.q,
            )
            proof = DoubleSpendProof.from_secrets(coin.digest(self.params), secrets)
            raise DoubleSpendError(proof)
        self._spent[coin.bare] = transcript
        return OnlineClearingResult(accepted=True, broker_queries=self.queries_served)

    def spend_online(
        self, stored: StoredCoin, merchant_id: str, now: int
    ) -> OnlineClearingResult:
        """Convenience: build the payment transcript and clear it.

        The transcript shape is identical to the witness scheme's so the
        comparison benchmarks measure only the architectural difference.
        """
        from repro.crypto.representation import respond

        d = self.params.hashes.H0(stored.coin.hash_encoding(), merchant_id, now)
        transcript = PaymentTranscript(
            coin=stored.coin,
            response=respond(stored.secrets, d, self.params.group.q),
            merchant_id=merchant_id,
            timestamp=now,
            salt=0,
        )
        return self.clear_payment(transcript)


__all__ = ["OnlineBroker", "OnlineClearingResult"]
