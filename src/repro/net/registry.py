"""The protocol method registry: one dispatch table, many transports.

The paper's parties are web services exchanging URL-encoded REST
messages; this module is the single place their RPC surface is defined.
Both network backends consume it:

* the discrete-event sim (:class:`repro.net.services.NetworkDeployment`)
  registers the handler tables on simulated :class:`~repro.net.node.Node`
  hosts and drives the client flows on the event loop;
* the real asyncio daemons (:mod:`repro.daemon`) register the same
  tables on TCP servers and drive the same flows over sockets.

Server side, :func:`broker_dispatch` / :func:`witness_dispatch` /
:func:`merchant_dispatch` build ``{method name: handler}`` tables around
the core actors. A handler either returns a payload mapping directly or
is a *generator* that yields the result of the backend-supplied ``rpc``
callable for nested calls (the merchant's ``pay`` handler contacts the
witness mid-request) and receives the reply payload back.

The ``rpc`` hook (:data:`RpcFn`) separates *calling* from *yielding*:
calling ``rpc(...)`` may already put the request on the wire, yielding
what it returned waits for the reply. When a request leaves is the
transport's business — sockets send at the call, so the callee works
while the handler goes on computing; the sim sends at the yield, after
the handler's compute has been charged, which keeps the paper's serial
latency model — and one handler serves both: the storefront's ``pay``
calls the witness before its own cryptographic checks and yields after
them (see :func:`merchant_dispatch`).

Every request a handler serves has the keys :data:`WIRE_SCHEMA` declares
for its method, and no others: the dispatch builders put each handler
behind :meth:`Shape.check`, so a body with an undeclared key, a missing
key or a misnumbered indexed group is refused with
:class:`~repro.core.exceptions.ProtocolViolationError` before the
handler's first line, over the sim and over sockets alike. The table
also declares each method's reply keys, which the flows read.

Client side, the ``*_flow`` generators express each protocol as a
sequence of :class:`RemoteCall` yields. A transport drives a flow by
performing each yielded call and sending the reply payload back into the
generator; exceptions raised by the transport are thrown into the flow.
Because the flows are transport-agnostic, a scenario replayed over the
sim and over real sockets performs byte-for-byte identical protocol
messages (given :class:`~repro.core.system.EcashSystem` per-party
seeding), which is what lets the daemon deployment check its traffic
accounting against the sim's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, NamedTuple, Protocol, Sequence

from repro.core.broker import Broker
from repro.core.client import Client, StoredCoin
from repro.core.coin import BareCoin
from repro.core.exceptions import (
    DoubleDepositError,
    DoubleSpendError,
    ProtocolViolationError,
    RenewalRefusedError,
)
from repro.core.info import CoinInfo
from repro.core.merchant import Merchant, PaymentRequest
from repro.core.transcripts import (
    CommitmentRequest,
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
)
from repro.core.witness import WitnessService
from repro.core.witness_ranges import WitnessAssignmentTable
from repro.crypto.blind import SignerChallenge, SignerResponse
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.serialize import (
    as_int,
    as_text,
    flatten,
    nest_keys,
    pack_batch,
    split_batch,
    strip_prefix,
)

#: A server-side handler: payload mapping in, payload mapping (or a
#: generator producing one) out.
Handler = Callable[[dict[str, Any]], Any]


class PendingReply(Protocol):
    """What the ``rpc`` hook returns: a reply that may be on its way."""

    def cancel(self) -> Any:
        """Abandon the reply; a handler that will not yield it calls this."""
        ...


#: Backend-supplied nested-call hook for generator handlers, called as
#: ``rpc(destination, method, payload)``. *Calling* it may put the
#: request on the wire (sockets write the frame at once; the sim sends
#: at the yield); *yielding* its result waits for the reply and resumes
#: the handler with the reply payload. A handler that called but will
#: not yield — it found the request bad meanwhile — cancels the result.
RpcFn = Callable[[str, str, dict[str, Any]], PendingReply]

#: A protocol clock: whole seconds, simulated or real.
Clock = Callable[[], int]

#: Every method name each role serves, in registration order. These
#: tuples are the protocol's method namespace; the dispatch builders
#: below are checked against them so the two can never drift apart.
BROKER_METHODS: tuple[str, ...] = (
    "withdraw/begin",
    "withdraw/complete",
    "withdraw/batch-begin",
    "withdraw/batch-complete",
    "renew/begin",
    "renew/complete",
    "deposit",
    "deposit/batch",
)
WITNESS_METHODS: tuple[str, ...] = ("witness/commit", "witness/sign")
MERCHANT_METHODS: tuple[str, ...] = ("pay",)

#: Transcripts per ``deposit/batch`` call. A batch is the broker's
#: durability unit (one WAL commit), so the size bounds both the frame —
#: about 75 KB at the paper's 1024-bit group against the daemons' 1 MiB
#: frame cap — and the deposits a merchant redoes when the broker dies
#: before a batch's commit marker is durable. The broker's handler
#: refuses a longer batch before verifying any of it.
DEPOSIT_BATCH_SIZE = 32

#: What :func:`batch_deposit_flow` reports for a transcript the broker
#: refuses as a double deposit: this merchant has the money already.
ALREADY_CREDITED = "already-credited"


# ----------------------------------------------------------------------
# Wire schema
# ----------------------------------------------------------------------
#: One part of a message: a plain key, or ``(prefix, record)`` — the
#: record's declared ``WIRE_KEYS`` nested under ``prefix`` (``""``: not
#: nested).
Part = str | tuple[str, Any]

#: An indexed group's items, as :func:`~repro.crypto.serialize.split_batch`
#: returns them.
Batch = list[tuple[int, dict[str, str]]]


class Shape:
    """The flat keys one message carries: declared, never inferred.

    ``parts`` are plain keys and nested records. A record's
    ``WIRE_PAIRS`` (the double-spend proof's ``x``/``y``) are optional,
    each present whole or not at all. ``group`` names an indexed group
    by its lead (``"batch.t"`` spans ``batch.t0.…`` to ``batch.t{n-1}.…``;
    ``"r"`` spans top-level ``r0.…``), and each of its items carries
    exactly the keys of one of ``items``; a single-valued item
    (``es.e0``) is the shape ``Shape("")``. No plain key may start with
    the group's lead.
    """

    def __init__(self, *parts: Part, group: str = "", items: Sequence["Shape"] = ()) -> None:
        keys: set[str] = set()
        pairs: list[frozenset[str]] = []
        for part in parts:
            if isinstance(part, str):
                keys.add(part)
                continue
            prefix, record = part
            keys |= nest_keys(prefix, record.WIRE_KEYS)
            pairs += [nest_keys(prefix, pair) for pair in getattr(record, "WIRE_PAIRS", ())]
        self.parts = parts
        self.keys = frozenset(keys)
        self.pairs = tuple(pairs)
        self.group = group
        self.items = tuple(items)
        self._item_keys = tuple(item.keys for item in self.items)

    def check(self, flat: Mapping[str, Any], what: str) -> Batch:
        """Refuse ``flat`` unless it carries exactly this shape's keys.

        Reads keys, never values. The indexed group is split and checked
        in one walk (:func:`~repro.crypto.serialize.split_batch`); every
        other key is accounted for by counting, not by a second walk.

        Returns:
            The group's items in index order (empty without a group).

        Raises:
            ProtocolViolationError: a declared key is missing, a key is
                not declared, a pair is half present, or the group is
                not ``0..n-1`` with every item complete.
        """
        batch: Batch = []
        loose = len(flat)
        if self.group:
            group, _, prefix = self.group.rpartition(".")
            batch = split_batch(flat, group, prefix, self._item_keys)
            loose -= sum(len(fields) for _, fields in batch)
        expected = len(self.keys)
        for pair in self.pairs:
            present = sum(key in flat for key in pair)
            if present not in (0, len(pair)):
                raise self._refusal(flat, what)
            expected += present
        if loose != expected or not all(key in flat for key in self.keys):
            raise self._refusal(flat, what)
        return batch

    def _refusal(self, flat: Mapping[str, Any], what: str) -> ProtocolViolationError:
        declared = self.keys.union(*self.pairs)
        extra = sorted(
            key
            for key in flat
            if key not in declared and not (self.group and key.startswith(self.group))
        )
        missing = sorted(self.keys.difference(flat))
        return ProtocolViolationError(
            f"{what}: keys are not as declared (undeclared {extra[:4]}, missing {missing[:4]})"
        )


class MethodSchema(NamedTuple):
    """One method's request shape and its reply alternatives, by name."""

    request: Shape
    replies: dict[str, Shape]


_TICKET = Shape("ticket.id", "ticket.a", "ticket.bare")
#: The broker's blind-signature response ``(r, c, s)``.
_RESPONSE = Shape("rho", "commitment", "sig_s")
_REFUSED = Shape("status", ("proof", DoubleSpendProof))

#: Every protocol method's request keys and reply keys. The only
#: statement of a message's shape: :meth:`Shape.check` refuses a request
#: against it before its handler runs, ``tests/net/test_wire_schema.py``
#: holds the flows' traffic to it, and ``docs/PROTOCOLS.md`` renders it.
#: The daemons' ``admin/*`` plane is not part of the protocol.
WIRE_SCHEMA: dict[str, MethodSchema] = {
    "withdraw/begin": MethodSchema(Shape(("info", CoinInfo)), {"reply": _TICKET}),
    "withdraw/complete": MethodSchema(Shape("ticket", "sig_e"), {"reply": _RESPONSE}),
    "withdraw/batch-begin": MethodSchema(
        Shape(group="batch.i", items=[Shape(("", CoinInfo))]),
        {"reply": Shape("ticket", group="c", items=[Shape("a", "bare")])},
    ),
    "withdraw/batch-complete": MethodSchema(
        Shape("ticket", group="es.e", items=[Shape("")]),
        {"reply": Shape(group="r", items=[_RESPONSE])},
    ),
    "renew/begin": MethodSchema(Shape(("info", CoinInfo)), {"reply": _TICKET}),
    "renew/complete": MethodSchema(
        Shape("ticket", "sig_e", ("old", BareCoin), "proof_ts", "proof_salt", "r1", "r2"),
        {"signed": _RESPONSE, "refused": _REFUSED},
    ),
    "deposit": MethodSchema(
        Shape("merchant_id", ("signed", SignedTranscript)),
        {"reply": Shape("outcome", "amount")},
    ),
    "deposit/batch": MethodSchema(
        Shape("merchant_id", group="batch.t", items=[Shape(("", SignedTranscript))]),
        {"reply": Shape(group="r", items=[Shape("outcome", "amount"), Shape("kind", "error")])},
    ),
    "witness/commit": MethodSchema(
        Shape(("", CommitmentRequest)),
        {"reply": Shape(("commitment", WitnessCommitment))},
    ),
    "witness/sign": MethodSchema(
        Shape(("transcript", PaymentTranscript)),
        {"ok": Shape("status", ("signed", SignedTranscript)), "double-spend": _REFUSED},
    ),
    "pay": MethodSchema(
        Shape(("transcript", PaymentTranscript), ("commitment", WitnessCommitment)),
        {"service": Shape("status", "amount"), "double-spend": _REFUSED},
    ),
}
assert tuple(WIRE_SCHEMA) == BROKER_METHODS + WITNESS_METHODS + MERCHANT_METHODS


def _checked(table: Mapping[str, Callable[..., Any]]) -> dict[str, Handler]:
    """``table``'s handlers, each behind its method's request shape.

    A handler receives the flattened payload — and, when its request
    declares an indexed group, the group's items — only once the
    request carries exactly the keys :data:`WIRE_SCHEMA` declares.
    """

    def checked(method: str, handler: Callable[..., Any]) -> Handler:
        shape = WIRE_SCHEMA[method].request

        def serve(payload: dict[str, Any]) -> Any:
            flat = flatten(payload)
            batch = shape.check(flat, method)
            return handler(flat, batch) if shape.group else handler(flat)

        return serve

    return {method: checked(method, handler) for method, handler in table.items()}


@dataclass(frozen=True)
class RemoteCall:
    """One RPC a client flow wants performed.

    Yielded by the ``*_flow`` generators; the driving transport performs
    the call and sends the response payload back into the flow.

    Attributes:
        destination: target node name.
        method: RPC method (one of the ``*_METHODS`` names).
        payload: request payload mapping.
        timeout: per-call timeout in seconds (``None`` = transport
            default).
        meanwhile: a hint, never a requirement — work the flow will do
            after this call whatever the reply says, and which a
            transport may therefore run (once, with no arguments, result
            ignored) while the request is in flight. The flow does not
            rely on it having run: it calls the same idempotent thunk
            itself once the reply is in, so a driver that never reads
            this field performs the same work in the same order and
            returns the same result. The socket transport takes the
            hint; the sim does not, because it charges a party's compute
            to simulated time *between* yields, and running it at the
            yield would move every recorded latency.
        ahead: a hint of the same kind for the wire — the call this flow
            will yield next whatever this reply says, as a thunk that
            returns the very :class:`RemoteCall` object the flow then
            yields. A transport may put it on the wire as soon as this
            request is (at most one call ahead) and hand its reply over
            when the flow yields that same object; if the flow yields
            anything else, raises or returns instead, the reply is
            abandoned. The request is sent either way, so only a call
            whose repetition is idempotent may be named here. The sim
            ignores it for the reason it ignores ``meanwhile``.
    """

    destination: str
    method: str
    payload: dict[str, Any] = field(hash=False)
    timeout: float | None = None
    meanwhile: Callable[[], Any] | None = field(default=None, compare=False)
    ahead: Callable[[], RemoteCall] | None = field(default=None, compare=False)


#: A client flow: yields :class:`RemoteCall`, receives reply payloads,
#: returns its protocol-level result.
Flow = Generator[RemoteCall, Any, Any]


class Transport(Protocol):
    """What a network backend must offer to run the shared flows.

    The sim implements this with generator processes on the event loop;
    the daemons implement it with coroutines over authenticated TCP.
    ``run_flow`` executes a :data:`Flow` to completion — performing every
    yielded :class:`RemoteCall`, sending reply payloads back in, throwing
    transport/protocol errors into the flow — and returns (a backend-
    native awaitable of) the flow's return value.

    A call's :attr:`RemoteCall.meanwhile` may be run between sending the
    request and waiting for its reply, or ignored; ignoring it is always
    correct. An implementation that runs it throws what it raises into
    the flow like any failure of the call, and abandons the reply. Its
    :attr:`RemoteCall.ahead` may likewise be sent before this reply is
    read, or ignored: a reply got ahead reaches the flow only if the flow
    yields that same call next, and is abandoned otherwise.
    """

    def run_flow(self, source: str, flow: Flow) -> Any:
        """Drive ``flow`` on behalf of node ``source``."""
        ...


# ----------------------------------------------------------------------
# Server dispatch tables
# ----------------------------------------------------------------------
def broker_dispatch(broker: Broker, clock: Clock) -> dict[str, Handler]:
    """The broker's method table (withdrawal, renewal, deposit)."""

    def withdraw_begin(flat: dict[str, Any]) -> dict[str, Any]:
        ticket, challenge = broker.begin_withdrawal(CoinInfo.from_wire(flat, "info."))
        return {"ticket": {"id": ticket, "a": challenge.a, "bare": challenge.b}}

    def withdraw_complete(flat: dict[str, Any]) -> dict[str, Any]:
        response = broker.complete_withdrawal(as_int(flat["ticket"]), as_int(flat["sig_e"]))
        return {"rho": response.r, "commitment": response.c, "sig_s": response.s}

    def renew_begin(flat: dict[str, Any]) -> dict[str, Any]:
        ticket, challenge = broker.begin_renewal(CoinInfo.from_wire(flat, "info."))
        return {"ticket": {"id": ticket, "a": challenge.a, "bare": challenge.b}}

    def renew_complete(flat: dict[str, Any]) -> dict[str, Any]:
        try:
            response = broker.complete_renewal(
                as_int(flat["ticket"]),
                as_int(flat["sig_e"]),
                BareCoin.from_wire(flat, "old."),
                as_int(flat["proof_ts"]),
                as_int(flat["proof_salt"]),
                as_int(flat["r1"]),
                as_int(flat["r2"]),
                clock(),
            )
        except RenewalRefusedError as refusal:
            # In-band like the storefront's double-spend reply: the
            # generic error frame would drop the extraction proof.
            return {"status": "refused", "proof": refusal.proof.to_wire()}
        return {"rho": response.r, "commitment": response.c, "sig_s": response.s}

    def deposit(flat: dict[str, Any]) -> dict[str, Any]:
        signed = SignedTranscript.from_wire(flat, "signed.")
        result = broker.deposit(
            str(flat["merchant_id"]), signed, clock(), strip_prefix(flat, "signed.")
        )
        return {"outcome": result.outcome.value, "amount": result.amount}

    def deposit_batch(flat: dict[str, Any], batch: Batch) -> dict[str, Any]:
        if len(batch) > DEPOSIT_BATCH_SIZE:
            raise ProtocolViolationError(
                f"deposit/batch carries {len(batch)} transcripts; "
                f"the limit is {DEPOSIT_BATCH_SIZE}"
            )
        received = [fields for _, fields in batch]
        results = broker.deposit_batch(
            str(flat["merchant_id"]),
            [SignedTranscript.from_wire(fields) for fields in received],
            clock(),
            received,
        )
        out: dict[str, Any] = {}
        for (index, _), result in zip(batch, results):
            if isinstance(result, Exception):
                out[f"r{index}"] = {
                    "kind": type(result).__name__,
                    "error": str(result),
                }
            else:
                out[f"r{index}"] = {
                    "outcome": result.outcome.value,
                    "amount": result.amount,
                }
        return out

    def withdraw_batch_begin(flat: dict[str, Any], batch: Batch) -> dict[str, Any]:
        infos = [CoinInfo.from_wire(fields) for _, fields in batch]
        ticket, challenges = broker.begin_batch_withdrawal(infos)
        out: dict[str, Any] = {"ticket": ticket}
        for index, challenge in enumerate(challenges):
            out[f"c{index}"] = {"a": challenge.a, "bare": challenge.b}
        return out

    def withdraw_batch_complete(flat: dict[str, Any], batch: Batch) -> dict[str, Any]:
        # Challenge k answers session k; the shape check has refused any
        # other numbering before the ticket could be spent on it.
        es = [as_int(fields[""]) for _, fields in batch]
        responses = broker.complete_batch_withdrawal(as_int(flat["ticket"]), es)
        out: dict[str, Any] = {}
        for index, response in enumerate(responses):
            out[f"r{index}"] = {"rho": response.r, "commitment": response.c, "sig_s": response.s}
        return out

    table = {
        "withdraw/begin": withdraw_begin,
        "withdraw/complete": withdraw_complete,
        "withdraw/batch-begin": withdraw_batch_begin,
        "withdraw/batch-complete": withdraw_batch_complete,
        "renew/begin": renew_begin,
        "renew/complete": renew_complete,
        "deposit": deposit,
        "deposit/batch": deposit_batch,
    }
    assert tuple(table) == BROKER_METHODS
    return _checked(table)


def witness_dispatch(witness: WitnessService, clock: Clock) -> dict[str, Handler]:
    """The witness service's method table (commitment + transcript sign)."""

    def witness_commit(flat: dict[str, Any]) -> dict[str, Any]:
        commitment = witness.request_commitment(CommitmentRequest.from_wire(flat), clock())
        return {"commitment": commitment.to_wire()}

    def witness_sign(flat: dict[str, Any]) -> dict[str, Any]:
        transcript = PaymentTranscript.from_wire(flat, "transcript.")
        try:
            signed = witness.sign_transcript(transcript, clock())
        except DoubleSpendError as refusal:
            return {"status": "double-spend", "proof": refusal.proof.to_wire()}
        return {"status": "ok", "signed": signed.to_wire()}

    table = {"witness/commit": witness_commit, "witness/sign": witness_sign}
    assert tuple(table) == WITNESS_METHODS
    return _checked(table)


def merchant_dispatch(
    merchant: Merchant, merchant_id: str, clock: Clock, rpc: RpcFn
) -> dict[str, Handler]:
    """The storefront's method table (``pay``).

    The ``pay`` handler is a generator: it calls the coin's witness
    through the backend-supplied ``rpc`` hook and resumes with the
    witness's reply. A request that passes the comparison-only gate
    :meth:`~repro.core.merchant.Merchant.may_forward_early` is handed to
    ``rpc`` *before* the storefront's own checks and yielded after them,
    so over sockets the witness's verification and the storefront's run
    on their two processes at once; any other request is verified first,
    then called. Either way every check runs, once, in the same order,
    and a request that fails one is never accepted: a call already
    started for it is cancelled and its reply dropped. A request whose
    keys are not ``pay``'s never reaches the handler, so it never reaches
    the witness either.
    """

    def pay(flat: dict[str, Any]) -> Generator[Any, Any, dict[str, Any]]:
        transcript = PaymentTranscript.from_wire(flat, "transcript.")
        commitment = WitnessCommitment.from_wire(flat, "commitment.")
        request = PaymentRequest(transcript=transcript, commitment=commitment)
        now = clock()
        witness_id = transcript.coin.witness_id
        to_sign = {"transcript": transcript.to_wire()}
        pending: PendingReply | None = None
        if merchant.may_forward_early(request, now):
            pending = rpc(witness_id, "witness/sign", to_sign)
        try:
            merchant.verify_payment_request(request, now)
        except BaseException:
            if pending is not None:
                pending.cancel()
            raise
        if pending is None:
            pending = rpc(witness_id, "witness/sign", to_sign)
        reply = flatten((yield pending))
        if reply.get("status") == "double-spend":
            proof = DoubleSpendProof.from_wire(reply, "proof.")
            try:
                merchant.handle_double_spend_proof(proof, transcript.coin)
            except DoubleSpendError:
                pass
            return {"status": "double-spend", "proof": proof.to_wire()}
        # The countersignature must be over the transcript verified here:
        # whatever transcript the witness sent beside it is not read.
        signature = SchnorrSignature(
            e=as_int(reply["signed.wsig_e"]), s=as_int(reply["signed.wsig_s"])
        )
        merchant.accept_signed_transcript(SignedTranscript(transcript, signature), clock())
        return {"status": "service", "amount": transcript.coin.denomination}

    table = {"pay": pay}
    assert tuple(table) == MERCHANT_METHODS
    return _checked(table)


# ----------------------------------------------------------------------
# Client-side protocol flows
# ----------------------------------------------------------------------
def withdrawal_flow(
    client: Client,
    broker_id: str,
    tables: Mapping[int, WitnessAssignmentTable],
    info: CoinInfo,
) -> Flow:
    """Algorithm 1 as a transport-neutral flow (two broker rounds).

    Step 2's coin secrets, ``A``, ``B`` and blinding need nothing from
    the broker, so they ride on ``withdraw/begin`` as its ``meanwhile``.
    """
    prepared = client.prepare_withdrawal(info)
    opened = flatten(
        (yield RemoteCall(
            broker_id, "withdraw/begin", {"info": info.to_wire()}, meanwhile=prepared
        ))
    )
    challenge = SignerChallenge(
        a=as_int(opened["ticket.a"]), b=as_int(opened["ticket.bare"])
    )
    ticket = as_int(opened["ticket.id"])
    session = client.begin_withdrawal(info, challenge, prepared)
    answered = yield RemoteCall(
        broker_id, "withdraw/complete", {"ticket": ticket, "sig_e": session.e}
    )
    response = SignerResponse(
        r=as_int(answered["rho"]),
        c=as_int(answered["commitment"]),
        s=as_int(answered["sig_s"]),
    )
    return client.finish_withdrawal(session, response, tables[info.list_version])


def batch_withdrawal_flow(
    client: Client,
    broker_id: str,
    tables: Mapping[int, WitnessAssignmentTable],
    infos: Sequence[CoinInfo],
) -> Flow:
    """Batched Algorithm 1 (step 0): several coins, still two broker rounds.

    Every coin keeps its own signing session — the per-coin computation
    is what keeps a batch unlinkable — and only the messages are shared.

    Returns:
        One stored coin per ``infos`` entry, in order.
    """
    opened = flatten(
        (yield RemoteCall(
            broker_id,
            "withdraw/batch-begin",
            {"batch": pack_batch("i", [info.to_wire() for info in infos])},
        ))
    )
    ticket = as_int(opened["ticket"])
    sessions = []
    for index, info in enumerate(infos):
        challenge = SignerChallenge(
            a=as_int(opened[f"c{index}.a"]), b=as_int(opened[f"c{index}.bare"])
        )
        sessions.append(client.begin_withdrawal(info, challenge))
    answered = flatten(
        (yield RemoteCall(
            broker_id,
            "withdraw/batch-complete",
            {
                "ticket": ticket,
                "es": {f"e{k}": session.e for k, session in enumerate(sessions)},
            },
        ))
    )
    coins = []
    for index, (info, session) in enumerate(zip(infos, sessions)):
        response = SignerResponse(
            r=as_int(answered[f"r{index}.rho"]),
            c=as_int(answered[f"r{index}.commitment"]),
            s=as_int(answered[f"r{index}.sig_s"]),
        )
        coins.append(client.finish_withdrawal(session, response, tables[info.list_version]))
    return coins


def payment_flow(
    client: Client,
    stored: StoredCoin,
    merchant_id: str,
    witness_public: int,
    clock: Clock,
) -> Flow:
    """Algorithm 2 as a flow: commit at the witness, pay the storefront.

    ``clock`` is consulted per step (not once up front) so timestamps
    reflect the time each message is actually built — on the sim backend
    simulated time advances between the rounds.

    Raises:
        DoubleSpendError: the storefront relayed a verified refusal.
        EcashError subclasses: per failed check, raised remotely.

    Returns:
        The payment amount in cents.
    """
    witness_id = stored.coin.witness_id
    request, pending = client.prepare_commitment_request(stored, merchant_id, clock())
    commit_reply = flatten(
        (yield RemoteCall(witness_id, "witness/commit", request.to_wire()))
    )
    commitment = WitnessCommitment.from_wire(commit_reply, "commitment.")
    transcript = client.build_payment(pending, commitment, witness_public, clock())
    pay_reply = flatten(
        (yield RemoteCall(
            merchant_id,
            "pay",
            {"transcript": transcript.to_wire(), "commitment": commitment.to_wire()},
        ))
    )
    if pay_reply.get("status") == "double-spend":
        raise DoubleSpendError(DoubleSpendProof.from_wire(pay_reply, "proof."))
    client.mark_spent(stored)
    # The settled amount comes from the storefront's receipt, not from
    # the client's own view of the coin.
    return as_int(pay_reply["amount"])


def direct_spend_flow(
    client: Client,
    stored: StoredCoin,
    merchant_id: str,
    witness_public: int,
    clock: Clock,
) -> Flow:
    """Spend directly against the witness, playing the storefront locally.

    The merchant-side transcript check is performed by the *caller* (a
    storefront colluding with — or simply operated by — the client), so
    the witness is the only independent party contacted: commitment, then
    ``witness/sign``. This is the flow an attacking client uses for its
    second spend, and the refusal path the paper's Section 7 measures.

    Raises:
        DoubleSpendError: the witness refused with an extraction proof.

    Returns:
        The countersigned transcript on success.
    """
    witness_id = stored.coin.witness_id
    request, pending = client.prepare_commitment_request(stored, merchant_id, clock())
    commit_reply = flatten(
        (yield RemoteCall(witness_id, "witness/commit", request.to_wire()))
    )
    commitment = WitnessCommitment.from_wire(commit_reply, "commitment.")
    transcript = client.build_payment(pending, commitment, witness_public, clock())
    sign_reply = flatten(
        (yield RemoteCall(
            witness_id, "witness/sign", {"transcript": transcript.to_wire()}
        ))
    )
    if sign_reply.get("status") == "double-spend":
        raise DoubleSpendError(DoubleSpendProof.from_wire(sign_reply, "proof."))
    return SignedTranscript.from_wire(sign_reply, "signed.")


def deposit_flow(merchant: Merchant, merchant_id: str, broker_id: str) -> Flow:
    """Algorithm 3 as a flow (one broker message per pending transcript).

    Returns:
        One ``{"outcome", "amount"}`` mapping per deposited transcript.
    """
    results: list[dict[str, Any]] = []
    for signed in merchant.pending_deposits():
        reply = flatten(
            (yield RemoteCall(
                broker_id,
                "deposit",
                {"merchant_id": merchant_id, "signed": signed.to_wire()},
            ))
        )
        merchant.mark_deposited(signed)
        results.append(
            {"outcome": str(reply["outcome"]), "amount": as_int(reply["amount"])}
        )
    return results


def batch_deposit_flow(
    merchant: Merchant,
    merchant_id: str,
    broker_id: str,
    transcripts: Sequence[SignedTranscript] | None = None,
) -> Flow:
    """Algorithm 3 as a merchant drains it: many transcripts per message.

    Packs ``transcripts`` (default: everything the merchant has pending)
    into ``deposit/batch`` calls of at most :data:`DEPOSIT_BATCH_SIZE`.
    The broker verifies every item as ``deposit`` would and settles each
    call as one durability unit, so a call either replies — accepted
    items are marked deposited, rejected ones stay pending — or fails
    whole, leaving its transcripts pending for a retry.

    The retry is idempotent. A call can fail *after* the broker's commit
    marker is durable (the reply is what was lost), and the retry then
    comes back as per-item ``DoubleDepositError``. The broker raises that
    only when this merchant was already credited for this coin, so the
    transcript is marked deposited and reported as
    :data:`ALREADY_CREDITED` with amount 0: nothing moved this time.

    That idempotence is what lets each call name the next chunk's call as
    its :attr:`RemoteCall.ahead`: the flow sends every chunk whatever the
    replies say, so a transport may put batch k+1 on the wire while the
    broker verifies batch k. A transcript is marked deposited only from
    the reply the flow itself processed; a call that fails stops the
    flow, and a reply that came ahead is then dropped, its transcripts
    still pending for the retry.

    Returns:
        Per transcript, in order: ``{"outcome", "amount"}`` when the
        broker credited it (now or before), else ``{"error", "kind"}``.
    """
    pending = merchant.pending_deposits() if transcripts is None else transcripts
    results: list[dict[str, Any]] = []

    # One slot: a transport's ``ahead`` thunk builds chunk k+1's call and
    # the flow's own yield for chunk k+1 returns that same object.
    @functools.lru_cache(maxsize=1)
    def call_at(start: int) -> RemoteCall:
        following = start + DEPOSIT_BATCH_SIZE
        return RemoteCall(
            broker_id,
            "deposit/batch",
            {
                "merchant_id": merchant_id,
                "batch": pack_batch(
                    "t", [signed.to_wire() for signed in pending[start:following]]
                ),
            },
            ahead=functools.partial(call_at, following) if following < len(pending) else None,
        )

    for start in range(0, len(pending), DEPOSIT_BATCH_SIZE):
        chunk = pending[start : start + DEPOSIT_BATCH_SIZE]
        reply = flatten((yield call_at(start)))
        for index, signed in enumerate(chunk):
            outcome = reply.get(f"r{index}.outcome")
            kind = str(reply.get(f"r{index}.kind", "EcashError"))
            if outcome is not None:
                amount = as_int(reply[f"r{index}.amount"])
            elif kind == DoubleDepositError.__name__:
                outcome, amount = ALREADY_CREDITED, 0
            else:
                results.append(
                    {"error": str(reply.get(f"r{index}.error", "unknown")), "kind": kind}
                )
                continue
            merchant.mark_deposited(signed)
            results.append({"outcome": str(outcome), "amount": amount})
    return results


def renewal_flow(
    client: Client,
    broker_id: str,
    tables: Mapping[int, WitnessAssignmentTable],
    stored: StoredCoin,
    new_info: CoinInfo,
    clock: Clock,
) -> Flow:
    """Algorithm 4 as a flow (two broker rounds).

    ``clock`` is read when the ownership proof is built — after the first
    round-trip — matching when the sim backend stamps it. The fresh
    coin's blinding rides on ``renew/begin`` as in :func:`withdrawal_flow`.
    """
    prepared = client.prepare_withdrawal(new_info)
    opened = flatten(
        (yield RemoteCall(
            broker_id, "renew/begin", {"info": new_info.to_wire()}, meanwhile=prepared
        ))
    )
    challenge = SignerChallenge(
        a=as_int(opened["ticket.a"]), b=as_int(opened["ticket.bare"])
    )
    ticket = as_int(opened["ticket.id"])
    session = client.begin_withdrawal(new_info, challenge, prepared)
    timestamp, salt, r1_star, r2_star = client.renewal_proof(stored, clock())
    answered = flatten(
        (yield RemoteCall(
            broker_id,
            "renew/complete",
            {
                "ticket": ticket,
                "sig_e": session.e,
                "old": stored.coin.bare.to_wire(),
                "proof_ts": timestamp,
                "proof_salt": salt,
                "r1": r1_star,
                "r2": r2_star,
            },
        ))
    )
    if answered.get("status") == "refused":
        raise RenewalRefusedError(DoubleSpendProof.from_wire(answered, "proof."))
    response = SignerResponse(
        r=as_int(answered["rho"]),
        c=as_int(answered["commitment"]),
        s=as_int(answered["sig_s"]),
    )
    fresh = client.finish_withdrawal(session, response, tables[new_info.list_version])
    client.mark_spent(stored)
    return fresh


__all__ = [
    "ALREADY_CREDITED",
    "BROKER_METHODS",
    "Batch",
    "Clock",
    "DEPOSIT_BATCH_SIZE",
    "Flow",
    "Handler",
    "MERCHANT_METHODS",
    "MethodSchema",
    "PendingReply",
    "RemoteCall",
    "RpcFn",
    "Shape",
    "Transport",
    "WIRE_SCHEMA",
    "WITNESS_METHODS",
    "as_int",
    "as_text",
    "batch_deposit_flow",
    "batch_withdrawal_flow",
    "broker_dispatch",
    "deposit_flow",
    "direct_spend_flow",
    "merchant_dispatch",
    "pack_batch",
    "payment_flow",
    "renewal_flow",
    "strip_prefix",
    "withdrawal_flow",
    "witness_dispatch",
]
