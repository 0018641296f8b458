"""The escrowed (traceable) withdrawal protocol over the network.

Wraps the cut-and-choose issuing of :mod:`repro.core.escrow` in RPC:

1. ``escrow/begin``  — client asks for ``K`` signing sessions; the broker
   returns ``K`` blind-signature challenges under one ticket;
2. ``escrow/submit`` — client sends the ``K`` blinded challenges ``e_i``;
   the broker replies with the audit set (all indices but one);
3. ``escrow/open``   — client opens the audited candidates; the broker
   verifies each against the registered identity and, if all pass,
   returns the signature response for the surviving candidate.

Three rounds for a K-candidate issuing — the cut-and-choose tax on top of
the ordinary two-round withdrawal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.escrow import (
    EscrowedCoin,
    EscrowedWithdrawalResult,
    OpenedCandidate,
    audit_opened_candidate,
    begin_escrowed_withdrawal,
)
from repro.core.exceptions import InvalidCoinError, ProtocolViolationError
from repro.core.info import CoinInfo
from repro.crypto.blind import PartiallyBlindSigner, SignerChallenge
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.serialize import as_int, flatten, strip_prefix
from repro.net.node import Network
from repro.net.services import BROKER_NODE


@dataclass
class _EscrowTicket:
    info: CoinInfo
    identity: int
    sessions: list[Any]
    challenges: list[SignerChallenge]
    keep: int
    es: list[int] | None = None


@dataclass
class EscrowIssuingService:
    """Broker-side endpoints plus the client-side process for escrow issue.

    Args:
        network: the RPC fabric (the broker node must exist already).
        signer: the broker's blind signer.
        trustee_public: the trustee's ElGamal key clients encrypt to.
        registry: registered identity element per client name.
        cut_and_choose: K.
    """

    network: Network
    signer: PartiallyBlindSigner
    trustee_public: int
    registry: dict[str, int]
    params: Any
    cut_and_choose: int = 8
    rng: random.Random | None = None
    seed: int = 2007
    _tickets: dict[int, _EscrowTicket] = field(default_factory=dict)
    _next_ticket: int = 1

    def __post_init__(self) -> None:
        if self.rng is None:
            # The audit-index draw must replay byte-identically across
            # runs; derive it from the deployment seed, never the host.
            self.rng = random.Random(f"escrow-issuing:{self.seed}")
        broker_node = self.network.node(BROKER_NODE)
        broker_node.on("escrow/begin", self._handle_begin)
        broker_node.on("escrow/submit", self._handle_submit)
        broker_node.on("escrow/open", self._handle_open)

    # ------------------------------------------------------------------
    # Broker handlers
    # ------------------------------------------------------------------
    def _handle_begin(self, payload: dict[str, Any]) -> dict[str, Any]:
        client_name = str(payload["client"])
        identity = self.registry.get(client_name)
        if identity is None:
            raise ProtocolViolationError(f"{client_name!r} has no escrow registration")
        info = CoinInfo.from_wire(strip_prefix(flatten(payload), "info."))
        sessions = []
        challenges = []
        for _ in range(self.cut_and_choose):
            challenge, state = self.signer.start(info.hash_parts())
            challenges.append(challenge)
            sessions.append(state)
        rng = self.rng
        assert rng is not None  # seeded in __post_init__
        ticket = _EscrowTicket(
            info=info,
            identity=identity,
            sessions=sessions,
            challenges=challenges,
            keep=rng.randrange(self.cut_and_choose),
        )
        ticket_id = self._next_ticket
        self._next_ticket += 1
        self._tickets[ticket_id] = ticket
        out: dict[str, Any] = {"ticket": ticket_id, "k": self.cut_and_choose}
        for index, challenge in enumerate(challenges):
            out[f"c{index}"] = {"a": challenge.a, "bare": challenge.b}
        return out

    def _handle_submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        ticket = self._tickets[as_int(payload["ticket"])]
        # The blinded challenges commit the client before it learns which
        # candidate survives; store them for the final signing step.
        flat = flatten(payload)
        ticket.es = [
            as_int(flat[f"es.e{index}"]) for index in range(self.cut_and_choose)
        ]
        audit = [i for i in range(self.cut_and_choose) if i != ticket.keep]
        return {"audit": {f"i{k}": index for k, index in enumerate(audit)}}

    def _handle_open(self, payload: dict[str, Any]) -> dict[str, Any]:
        ticket = self._tickets.pop(as_int(payload["ticket"]))
        flat = flatten(payload)
        for index in range(self.cut_and_choose):
            if index == ticket.keep:
                continue
            prefix = f"open.i{index}."
            opened = OpenedCandidate(
                e=as_int(flat[prefix + "sig_e"]),
                t1=as_int(flat[prefix + "t1"]),
                t2=as_int(flat[prefix + "t2"]),
                t3=as_int(flat[prefix + "t3"]),
                t4=as_int(flat[prefix + "t4"]),
                commitment_a=as_int(flat[prefix + "A"]),
                commitment_b=as_int(flat[prefix + "B"]),
                tag=ElGamalCiphertext.from_wire(flat, prefix),
                tag_randomness=as_int(flat[prefix + "rho"]),
            )
            if ticket.es is None or opened.e != ticket.es[index]:
                raise ProtocolViolationError("opened candidate does not match submission")
            audit_opened_candidate(
                self.params,
                self.trustee_public,
                self.signer.public,
                ticket.identity,
                ticket.info,
                ticket.challenges[index],
                opened,
            )
        assert ticket.es is not None  # checked per-candidate above
        response = self.signer.respond(ticket.sessions[ticket.keep], ticket.es[ticket.keep])
        return {
            "keep": ticket.keep,
            "rho": response.r,
            "commitment": response.c,
            "sig_s": response.s,
        }

    # ------------------------------------------------------------------
    # Client process
    # ------------------------------------------------------------------
    def withdrawal_process(
        self, client_name: str, identity: int, info: CoinInfo
    ) -> Generator[Any, Any, EscrowedWithdrawalResult]:
        """Run the three-round escrowed withdrawal from ``client_name``.

        Raises:
            ProtocolViolationError (remote): an audit failed.
            InvalidCoinError: the final unblinded coin does not verify.
        """
        opened_reply = flatten(
            (yield self.network.rpc(
                client_name,
                BROKER_NODE,
                "escrow/begin",
                {"client": client_name, "info": info.to_wire()},
            ))
        )
        ticket = as_int(opened_reply["ticket"])
        k = as_int(opened_reply["k"])
        challenges = [
            SignerChallenge(
                a=as_int(opened_reply[f"c{index}.a"]),
                b=as_int(opened_reply[f"c{index}.bare"]),
            )
            for index in range(k)
        ]
        session = begin_escrowed_withdrawal(
            self.params,
            self.trustee_public,
            identity,
            info,
            self.signer.public,
            challenges,
            self.rng,
        )
        audit_reply = flatten(
            (yield self.network.rpc(
                client_name,
                BROKER_NODE,
                "escrow/submit",
                {
                    "ticket": ticket,
                    "es": {f"e{i}": e for i, e in enumerate(session.blinded_challenges)},
                },
            ))
        )
        audit = sorted(
            as_int(value)
            for key, value in audit_reply.items()
            if key.startswith("audit.")
        )
        openings: dict[str, Any] = {}
        for index in audit:
            opened = session.open(index)
            # Long key names whose short forms are the letters: on the wire
            # these are ``e`` and ``r``, and a receiver reads them back so.
            openings[f"i{index}"] = {
                "sig_e": opened.e,
                "t1": opened.t1,
                "t2": opened.t2,
                "t3": opened.t3,
                "t4": opened.t4,
                "A": opened.commitment_a,
                "B": opened.commitment_b,
                "c1": opened.tag.c1,
                "c2": opened.tag.c2,
                "rho": opened.tag_randomness,
            }
        final = flatten(
            (yield self.network.rpc(
                client_name,
                BROKER_NODE,
                "escrow/open",
                {"ticket": ticket, "open": openings},
            ))
        )
        keep = as_int(final["keep"])
        from repro.crypto.blind import SignerResponse

        chosen = session.candidates[keep]
        signature = chosen.session.finish(
            SignerResponse(
                r=as_int(final["rho"]),
                c=as_int(final["commitment"]),
                s=as_int(final["sig_s"]),
            )
        )
        coin = EscrowedCoin(
            signature=signature,
            info=info,
            commitment_a=chosen.session.message_parts[0],
            commitment_b=chosen.session.message_parts[1],
            tag=chosen.tag,
        )
        if not coin.verify_signature(self.params, self.signer.public):
            raise InvalidCoinError("escrowed coin failed to verify after unblinding")
        return EscrowedWithdrawalResult(coin=coin, secrets=chosen.secrets)


__all__ = ["EscrowIssuingService"]
