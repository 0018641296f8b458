"""The broker: coin issuer, deposit clearinghouse, witness-list authority.

The broker (Section 3's dedicated-but-not-necessarily-online server) owns
two keys — the blind-signature key ``y = g^x`` that signs coins and a plain
Schnorr key that signs witness-range assignments — plus three databases:
registered merchants (with their security deposits), deposited payment
transcripts (kept until each coin's hard expiry, Alg. 3) and renewal
transcripts (Alg. 4).

Both transcript databases are keyed by the *bare coin tuple itself*, which
is how Algorithm 3 phrases the search ("searches its database to determine
if the bare coin ... has previously been deposited") — no extra hashing.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, ContextManager, Mapping

from repro import obs, perf
from repro.core.bank import Ledger
from repro.core.coin import BareCoin, Coin
from repro.core.exceptions import (
    DoubleDepositError,
    EcashError,
    ExpiredCoinError,
    InvalidCoinError,
    InvalidPaymentError,
    RenewalRefusedError,
    UnknownMerchantError,
    WrongWitnessError,
)
from repro.core.info import CoinInfo
from repro.core.params import SystemParams
from repro.core.transcripts import (
    DoubleSpendProof,
    SignedTranscript,
    verify_payment_response,
)
from repro.core.witness_ranges import WitnessAssignmentTable, build_table
from repro.crypto.blind import PartiallyBlindSigner, SignerChallenge, SignerResponse, SignerSession
from repro.crypto.representation import RepresentationResponse, extract_representations
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.serialize import WireFields, as_int, as_text, pack_batch, split_batch

if TYPE_CHECKING:
    from repro.core.persistence import BrokerJournal


class DepositOutcome(enum.Enum):
    """How a successful deposit was funded (Algorithm 3 step 2)."""

    CREDITED = "credited"
    CREDITED_FROM_WITNESS_DEPOSIT = "credited-from-witness-deposit"


@dataclass(frozen=True)
class DepositResult:
    """Outcome of a deposit plus any faulty-witness evidence."""

    outcome: DepositOutcome
    amount: int
    witness_fault_proof: tuple[SignedTranscript, SignedTranscript] | None = None


#: One witness-fault log entry: ``(witness_id, first, second)`` — the two
#: transcripts of one coin the witness signed for two merchants.
FaultEntry = tuple[str, SignedTranscript, SignedTranscript]


# ``to_record`` / ``from_record`` below are how this state looks at rest
# (:mod:`repro.core.persistence`): wire-codec mappings built from the
# ``to_wire`` of what they hold. Not ``to_wire``: some hold secrets, and
# nothing here is ever sent to a peer.


@dataclass
class MerchantAccount:
    """Broker-side record for one registered merchant."""

    merchant_id: str
    public_key: int
    security_deposit: int
    coins_witnessed: int = 0
    incidents: int = 0

    def to_record(self) -> dict[str, object]:
        """The account as stored at rest."""
        return {
            "merchant_id": self.merchant_id,
            "public_key": self.public_key,
            "security_deposit": self.security_deposit,
            "coins_witnessed": self.coins_witnessed,
            "incidents": self.incidents,
        }

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "MerchantAccount":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        return cls(
            merchant_id=as_text(fields[prefix + "merchant_id"]),
            public_key=as_int(fields[prefix + "public_key"]),
            security_deposit=as_int(fields[prefix + "security_deposit"]),
            coins_witnessed=as_int(fields[prefix + "coins_witnessed"]),
            incidents=as_int(fields[prefix + "incidents"]),
        )


@dataclass
class _DepositRecord:
    """One cleared deposit, retained until the coin's hard expiry."""

    signed: SignedTranscript
    deposited_at: int

    def to_record(self) -> dict[str, object]:
        """The deposit as stored at rest: ``signed.*`` is the wire form."""
        return {"signed": self.signed.to_wire(), "deposited_at": self.deposited_at}

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_DepositRecord":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        return cls(
            signed=SignedTranscript.from_wire(fields, prefix + "signed."),
            deposited_at=as_int(fields[prefix + "deposited_at"]),
        )


@dataclass
class _RenewalRecord:
    """One renewal, retained until the old coin's hard expiry."""

    bare: BareCoin
    challenge: int
    response: RepresentationResponse
    renewed_at: int

    def to_record(self) -> dict[str, object]:
        """The renewal as stored at rest."""
        return {
            "bare": self.bare.to_wire(),
            "challenge": self.challenge,
            "r1": self.response.r1,
            "r2": self.response.r2,
            "renewed_at": self.renewed_at,
        }

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_RenewalRecord":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        return cls(
            bare=BareCoin.from_wire(fields, prefix + "bare."),
            challenge=as_int(fields[prefix + "challenge"]),
            response=RepresentationResponse(
                r1=as_int(fields[prefix + "r1"]), r2=as_int(fields[prefix + "r2"])
            ),
            renewed_at=as_int(fields[prefix + "renewed_at"]),
        )


@dataclass
class _WithdrawalTicket:
    """Broker-side state of one in-flight withdrawal/renewal session."""

    info: CoinInfo
    session: SignerSession
    paid_by: str | None

    def to_record(self) -> dict[str, object]:
        """The ticket as stored at rest, the signer's SECRET nonces included."""
        out: dict[str, object] = {
            "info": self.info.to_wire(),
            # Spelled out: as key segments ``s`` and ``d`` are short forms.
            "session": {
                "nonce_u": self.session.u,
                "nonce_s": self.session.s,
                "nonce_d": self.session.d,
                "tag_z": self.session.z,
            },
        }
        if self.paid_by is not None:
            out["paid_by"] = self.paid_by
        return out

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_WithdrawalTicket":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        paid_by = fields.get(prefix + "paid_by")
        return cls(
            info=CoinInfo.from_wire(fields, prefix + "info."),
            session=SignerSession(
                u=as_int(fields[prefix + "session.nonce_u"]),
                s=as_int(fields[prefix + "session.nonce_s"]),
                d=as_int(fields[prefix + "session.nonce_d"]),
                z=as_int(fields[prefix + "session.tag_z"]),
            ),
            paid_by=None if paid_by is None else as_text(paid_by),
        )

    @staticmethod
    def batch_to_record(batch: list["_WithdrawalTicket"]) -> dict[str, object]:
        """One batch-withdrawal session: its tickets, in order."""
        return {"tickets": pack_batch("k", [ticket.to_record() for ticket in batch])}

    @classmethod
    def batch_from_record(cls, fields: WireFields) -> list["_WithdrawalTicket"]:
        """Parse :meth:`batch_to_record` fields."""
        return [cls.from_record(item) for _, item in split_batch(fields, "tickets", "k")]


@dataclass(frozen=True)
class _BrokerMeta:
    """The broker's keys and counters: the ``meta`` record of its state."""

    account: str
    blind_secret: int
    sign_secret: int
    next_version: int
    next_ticket: int

    def to_record(self) -> dict[str, object]:
        """The singleton as stored at rest (both SECRET keys in it)."""
        return {
            "account": self.account,
            "blind_secret": self.blind_secret,
            "sign_secret": self.sign_secret,
            "next_version": self.next_version,
            "next_ticket": self.next_ticket,
        }

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "_BrokerMeta":
        """Parse :meth:`to_record` fields, read from under ``prefix``."""
        return cls(
            account=as_text(fields[prefix + "account"]),
            blind_secret=as_int(fields[prefix + "blind_secret"]),
            sign_secret=as_int(fields[prefix + "sign_secret"]),
            next_version=as_int(fields[prefix + "next_version"]),
            next_ticket=as_int(fields[prefix + "next_ticket"]),
        )


def fault_to_record(entry: FaultEntry) -> dict[str, object]:
    """One witness-fault log entry as stored at rest."""
    witness_id, first, second = entry
    return {"witness_id": witness_id, "first": first.to_wire(), "second": second.to_wire()}


def fault_from_record(fields: WireFields, prefix: str = "") -> FaultEntry:
    """Parse :func:`fault_to_record` fields, read from under ``prefix``."""
    return (
        as_text(fields[prefix + "witness_id"]),
        SignedTranscript.from_wire(fields, prefix + "first."),
        SignedTranscript.from_wire(fields, prefix + "second."),
    )


class Broker:
    """The broker role.

    Args:
        params: system parameters.
        ledger: the bank ledger backing all balances.
        rng: optional deterministic randomness source.
        broker_account: ledger account name holding the coin float.
    """

    def __init__(
        self,
        params: SystemParams,
        ledger: Ledger | None = None,
        rng: random.Random | None = None,
        broker_account: str = "broker",
    ) -> None:
        self.params = params
        self.ledger = ledger if ledger is not None else Ledger()
        self.rng = rng
        self.account = broker_account
        self.ledger.open_account(broker_account)
        self._signer = PartiallyBlindSigner(params.group, params.hashes, rng=rng)
        self._sign_key = SchnorrKeyPair.generate(params.group, rng)
        self.merchants: dict[str, MerchantAccount] = {}
        self.tables: dict[int, WitnessAssignmentTable] = {}
        self._next_version = 1
        self._tickets: dict[int, _WithdrawalTicket] = {}
        self._batch_tickets: dict[int, list[_WithdrawalTicket]] = {}
        self._ticket_ids = itertools.count(1)
        self._deposits: dict[BareCoin, _DepositRecord] = {}
        self._renewals: dict[BareCoin, _RenewalRecord] = {}
        self.witness_fault_log: list[FaultEntry] = []
        #: Durability hook (see :func:`repro.core.persistence.attach_broker_store`):
        #: when set, every mutation below is journaled before the method
        #: returns, so no acknowledged state change can be lost to a crash.
        #: Each mutating protocol step runs inside one
        #: :meth:`_journal_scope`, so everything it journals — ledger
        #: movements included — commits as a single atomic durability unit.
        self.journal: "BrokerJournal | None" = None

    def _journal_scope(self) -> ContextManager[None]:
        """One atomic durability unit covering a whole protocol step.

        All journal records written inside the scope (including ledger
        entries fired through :attr:`Ledger.on_entry`) share one commit
        marker: recovery replays the step entirely or not at all, never
        a ledger credit without its transcript record. Without a journal
        attached this is a no-op scope.
        """
        if self.journal is not None:
            return self.journal.operation()
        return contextlib.nullcontext()

    # ------------------------------------------------------------------
    # Public keys
    # ------------------------------------------------------------------
    @property
    def blind_public(self) -> int:
        """The blind-signature verification key ``y`` printed on coins."""
        return self._signer.public

    @property
    def sign_public(self) -> int:
        """The plain signature key verifying witness-range entries."""
        return self._sign_key.public

    # ------------------------------------------------------------------
    # Merchant registration and witness list management (Section 4)
    # ------------------------------------------------------------------
    def register_merchant(
        self,
        merchant_id: str,
        public_key: int,
        security_deposit: int,
        funded_from: str | None = None,
    ) -> MerchantAccount:
        """Register a merchant with its certified key and security deposit.

        The deposit moves into a dedicated escrow account
        ``deposit:<merchant_id>``; Algorithm 3 pays cheated merchants from
        it when the witness misbehaves.

        Raises:
            ValueError: duplicate registration or non-positive deposit.
            InsufficientFundsError: the funding account cannot cover it.
        """
        if merchant_id in self.merchants:
            raise ValueError(f"merchant {merchant_id!r} already registered")
        if security_deposit <= 0:
            raise ValueError("security deposit must be positive")
        if not self.params.group.is_element(public_key):
            raise ValueError("merchant public key is not a group element")
        escrow = self._escrow_account(merchant_id)
        source = funded_from if funded_from is not None else f"bank:{merchant_id}"
        with self._journal_scope():
            if funded_from is None:
                self.ledger.mint(source, security_deposit, memo="security deposit funding")
            self.ledger.transfer(source, escrow, security_deposit, memo="security deposit")
            account = MerchantAccount(
                merchant_id=merchant_id,
                public_key=public_key,
                security_deposit=security_deposit,
            )
            self.merchants[merchant_id] = account
            if self.journal is not None:
                self.journal.record_merchant(account)
        # Registered keys verify a witness signature per deposited coin;
        # make them fixed-base candidates for the perf engine.
        perf.register(public_key, self.params.group.p, self.params.group.q)
        return account

    def publish_witness_table(self, weights: Mapping[str, float]) -> WitnessAssignmentTable:
        """Publish a new signed witness-range assignment version.

        Raises:
            UnknownMerchantError: a weighted merchant is not registered.
        """
        for merchant_id in weights:
            if merchant_id not in self.merchants:
                raise UnknownMerchantError(f"cannot assign range to unknown {merchant_id!r}")
        version = self._next_version
        self._next_version += 1
        table = build_table(self.params, self._sign_key, version, weights, rng=self.rng)
        with self._journal_scope():
            self.tables[version] = table
            if self.journal is not None:
                self.journal.record_table(table)
        return table

    @property
    def current_table(self) -> WitnessAssignmentTable:
        """The latest published witness table.

        Raises:
            RuntimeError: no table has been published yet.
        """
        if not self.tables:
            raise RuntimeError("broker has not published a witness table")
        return self.tables[max(self.tables)]

    # ------------------------------------------------------------------
    # Withdrawal (Algorithm 1, broker side)
    # ------------------------------------------------------------------
    def begin_withdrawal(
        self, info: CoinInfo, paid_by: str | None = None
    ) -> tuple[int, SignerChallenge]:
        """Step 1: collect payment, send ``(a, b)``.

        Costs 3 ``Exp`` + 1 ``Hash`` (the broker's withdrawal row).

        Args:
            info: the agreed public coin attributes; its ``list_version``
                must be a published table version.
            paid_by: ledger account paying for the coin; ``None`` mints
                fresh external money (an anonymous gift-card purchase).

        Raises:
            ValueError: unpublished witness list version.
        """
        if info.list_version not in self.tables:
            raise ValueError(f"witness list version {info.list_version} not published")
        payer = paid_by if paid_by is not None else "anonymous-purchase"
        with self._journal_scope():
            if paid_by is None:
                self.ledger.mint(payer, info.denomination, memo="coin purchase")
            self.ledger.transfer(
                payer, self.account, info.denomination, memo="coin purchase"
            )
            obs.counter_inc("broker_withdrawals_total")
            challenge, session = self._signer.start(info.hash_parts())
            ticket_id = next(self._ticket_ids)
            ticket = _WithdrawalTicket(info=info, session=session, paid_by=payer)
            self._tickets[ticket_id] = ticket
            if self.journal is not None:
                self.journal.record_ticket(ticket_id, ticket)
        return ticket_id, challenge

    def complete_withdrawal(self, ticket_id: int, e: int) -> SignerResponse:
        """Step 3: answer the blinded challenge. Pure ``Z_q`` arithmetic.

        Raises:
            KeyError: unknown or already-completed ticket.
        """
        ticket = self._tickets.pop(ticket_id)
        if self.journal is not None:
            self.journal.drop_ticket(ticket_id)
        return self._signer.respond(ticket.session, e)

    # ------------------------------------------------------------------
    # Batched withdrawal (Algorithm 1, step 0: "Client can buy several
    # coins at a time (saving on communication cost), but the computation
    # below have to be performed independently for each coin to ensure
    # they are unlinkable.")
    # ------------------------------------------------------------------
    def begin_batch_withdrawal(
        self,
        infos: list[CoinInfo],
        paid_by: str | None = None,
    ) -> tuple[int, list[SignerChallenge]]:
        """Open one ticket covering independent signing sessions per coin.

        One payment covers the whole batch; every coin still gets its own
        fresh signer nonces (independence is what makes the batch
        unlinkable).

        Raises:
            ValueError: empty batch or unpublished list version.
        """
        if not infos:
            raise ValueError("cannot withdraw an empty batch")
        for info in infos:
            if info.list_version not in self.tables:
                raise ValueError(f"witness list version {info.list_version} not published")
        total = sum(info.denomination for info in infos)
        payer = paid_by if paid_by is not None else "anonymous-purchase"
        with self._journal_scope():
            if paid_by is None:
                self.ledger.mint(payer, total, memo="coin batch purchase")
            self.ledger.transfer(payer, self.account, total, memo="coin batch purchase")
            challenges: list[SignerChallenge] = []
            ticket_id = next(self._ticket_ids)
            batch: list[_WithdrawalTicket] = []
            for info in infos:
                challenge, session = self._signer.start(info.hash_parts())
                challenges.append(challenge)
                batch.append(
                    _WithdrawalTicket(info=info, session=session, paid_by=payer)
                )
            self._batch_tickets[ticket_id] = batch
            if self.journal is not None:
                self.journal.record_batch(ticket_id, batch)
        return ticket_id, challenges

    def complete_batch_withdrawal(self, ticket_id: int, es: list[int]) -> list[SignerResponse]:
        """Answer every blinded challenge of a batch in one round.

        Raises:
            KeyError: unknown ticket.
            ValueError: challenge count does not match the batch.
        """
        batch = self._batch_tickets.pop(ticket_id)
        if len(es) != len(batch):
            self._batch_tickets[ticket_id] = batch
            raise ValueError(f"expected {len(batch)} challenges, got {len(es)}")
        responses = [
            self._signer.respond(ticket.session, e) for ticket, e in zip(batch, es)
        ]
        if self.journal is not None:
            self.journal.drop_batch(ticket_id)
        return responses

    # ------------------------------------------------------------------
    # Deposit (Algorithm 3)
    # ------------------------------------------------------------------
    def deposit(self, merchant_id: str, signed: SignedTranscript, now: int) -> DepositResult:
        """Clear a witness-signed payment transcript.

        Happy path costs 6 ``Exp`` + 4 ``Hash`` + 1 ``Ver`` (Table 1):
        secret-key coin verification (3 ``Exp``, 2 ``Hash``), witness
        digest (1 ``Hash``), transcript signature (1 ``Ver``), challenge
        (1 ``Hash``) and the representation check (3 ``Exp``).

        Raises:
            UnknownMerchantError: depositor or witness not registered.
            InvalidCoinError / ExpiredCoinError / WrongWitnessError /
            InvalidPaymentError: failed verification (step 1).
            DoubleDepositError: the same merchant re-deposited the coin,
                whichever account its first deposit was paid from.
        """
        self._verify_deposit(merchant_id, signed, now)
        return self._settle_deposit(merchant_id, signed, now)

    def deposit_batch(
        self,
        merchant_id: str,
        items: list[SignedTranscript],
        now: int,
    ) -> list[DepositResult | EcashError]:
        """Clear many transcripts from one merchant as one durability unit.

        Every item is verified and settled by the code :meth:`deposit`
        runs, in input order — same checks, same exceptions, same 6
        ``Exp`` + 4 ``Hash`` + 1 ``Ver`` per accepted item — so an
        in-batch repeat of a coin behaves as two separate deposits would.
        What the batch shares is the journal: all settlements sit inside
        one :meth:`_journal_scope`, which costs one fsync per touched
        shard and one commit marker however many items it holds. A crash
        before that marker is durable makes recovery discard the whole
        batch; the caller has seen no result by then and retries it.

        The broker sees each coin once, so nothing is gained by batching
        the verification itself: a small-exponent combined check needs
        two subgroup-membership exponentiations per coin where the plain
        check needs one exponentiation, and measured slower end to end.

        Returns:
            Per item, in order: a :class:`DepositResult`, or the
            :class:`~repro.core.exceptions.EcashError` that item raised.
        """
        items = list(items)
        obs.observe("perf_batch_deposit_size", len(items))
        results: list[DepositResult | EcashError] = []
        with self._journal_scope():
            for signed in items:
                try:
                    self._verify_deposit(merchant_id, signed, now)
                    results.append(self._settle_deposit(merchant_id, signed, now))
                except EcashError as exc:
                    results.append(exc)
        return results

    def _verify_deposit(self, merchant_id: str, signed: SignedTranscript, now: int) -> None:
        """Algorithm 3 step 1: every check a transcript passes before it is paid.

        Shared by :meth:`deposit` and :meth:`deposit_batch`, so a batched
        item is held to exactly the single deposit's checks, in its order.
        """
        self._require_merchant(merchant_id)
        transcript = signed.transcript
        coin = transcript.coin
        if transcript.merchant_id != merchant_id:
            raise InvalidPaymentError("transcript names a different depositing merchant")
        if not self._signer.verify_with_secret(
            coin.info.hash_parts(), coin.bare.message_parts(), coin.bare.signature
        ):
            raise InvalidCoinError("broker signature on deposited coin failed to verify")
        if not coin.info.is_spendable(now):
            raise ExpiredCoinError("coin is past its soft expiry and no longer cashable")
        self._check_witness_assignment(coin)
        witness = self._require_merchant(coin.witness_id)
        if not signed.verify_witness_signature(self.params, witness.public_key):
            raise InvalidPaymentError("witness signature on transcript failed to verify")
        verify_payment_response(self.params, transcript)

    def _settle_deposit(
        self, merchant_id: str, signed: SignedTranscript, now: int
    ) -> DepositResult:
        """Algorithm 3 step 2: dedup against the transcript database and pay.

        The whole settlement is one :meth:`_journal_scope`: the ledger
        credit, the deposit (or fault) record and the witness counters
        share one commit marker, so a crash at any instant recovers to
        either the full settlement or none of it — never a credited
        merchant account with no memory of the coin (the state a
        retrying merchant could turn into a double credit).
        """
        coin = signed.transcript.coin
        witness = self._require_merchant(coin.witness_id)
        previous = self._deposits.get(coin.bare)
        with self._journal_scope():
            if previous is None:
                record = _DepositRecord(signed=signed, deposited_at=now)
                self._deposits[coin.bare] = record
                witness.coins_witnessed += 1
                self._credit(merchant_id, coin.denomination, source=self.account)
                if self.journal is not None:
                    self.journal.record_deposit(coin.bare, record)
                    self.journal.record_merchant(witness)
                obs.counter_inc(
                    "broker_deposits_total", outcome=DepositOutcome.CREDITED.value
                )
                return DepositResult(
                    outcome=DepositOutcome.CREDITED, amount=coin.denomination
                )
            # Credited already: from the float (the first record) or from
            # the witness's escrow (a fault entry). The fault log is the
            # only memory of the latter, so recovery restores this refusal
            # with it; it is read only for a coin deposited before.
            if previous.signed.transcript.merchant_id == merchant_id or any(
                paid.transcript.merchant_id == merchant_id
                and paid.transcript.coin.bare == coin.bare
                for _, _, paid in self.witness_fault_log
            ):
                obs.counter_inc("broker_double_deposits_refused_total")
                raise DoubleDepositError(
                    f"merchant {merchant_id!r} already deposited this coin"
                )
            # Case 2-b: another merchant deposits the same coin — both hold
            # witness signatures, so the witness signed twice. This merchant
            # is still paid, once, from the witness's security deposit.
            witness.incidents += 1
            obs.counter_inc("witness_faults_detected_total")
            obs.counter_inc(
                "broker_deposits_total",
                outcome=DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT.value,
            )
            proof = (previous.signed, signed)
            self.witness_fault_log.append((coin.witness_id, *proof))
            self._credit(
                merchant_id, coin.denomination, source=self._escrow_account(coin.witness_id)
            )
            if self.journal is not None:
                self.journal.record_merchant(witness)
                self.journal.record_fault(
                    len(self.witness_fault_log) - 1, self.witness_fault_log[-1]
                )
            return DepositResult(
                outcome=DepositOutcome.CREDITED_FROM_WITNESS_DEPOSIT,
                amount=coin.denomination,
                witness_fault_proof=proof,
            )

    # ------------------------------------------------------------------
    # Renewal (Algorithm 4, broker side)
    # ------------------------------------------------------------------
    def begin_renewal(self, new_info: CoinInfo) -> tuple[int, SignerChallenge]:
        """Step 1: agree on the new coin and send ``(a, b)``.

        Identical crypto to withdrawal's step 1 (3 ``Exp`` + 1 ``Hash``)
        but no payment: the old coin *is* the payment.

        Raises:
            ValueError: unpublished witness list version.
        """
        if new_info.list_version not in self.tables:
            raise ValueError(f"witness list version {new_info.list_version} not published")
        with self._journal_scope():
            challenge, session = self._signer.start(new_info.hash_parts())
            ticket_id = next(self._ticket_ids)
            ticket = _WithdrawalTicket(info=new_info, session=session, paid_by=None)
            self._tickets[ticket_id] = ticket
            if self.journal is not None:
                self.journal.record_ticket(ticket_id, ticket)
        return ticket_id, challenge

    def complete_renewal(
        self,
        ticket_id: int,
        e: int,
        old_bare: BareCoin,
        proof_timestamp: int,
        proof_salt: int,
        r1_star: int,
        r2_star: int,
        now: int,
    ) -> SignerResponse:
        """Step 3: verify the old coin and ownership proof, then sign.

        Costs 6 ``Exp`` + 3 ``Hash`` here, 9 ``Exp`` + 4 ``Hash`` for the
        whole renewal including :meth:`begin_renewal` — the broker's
        renewal row of Table 1.

        Raises:
            KeyError: unknown ticket.
            InvalidCoinError / ExpiredCoinError / InvalidPaymentError:
                failed verification of the old coin or proof.
            RenewalRefusedError: the old coin was already deposited or
                renewed; carries the extracted representations.
            ValueError: denomination mismatch between old and new coin.
        """
        ticket = self._tickets.pop(ticket_id)
        if ticket.info.denomination != old_bare.info.denomination:
            self._tickets[ticket_id] = ticket
            raise ValueError("new coin denomination must match the renewed coin")
        if not self._signer.verify_with_secret(
            old_bare.info.hash_parts(), old_bare.message_parts(), old_bare.signature
        ):
            self._tickets[ticket_id] = ticket
            raise InvalidCoinError("broker signature on old coin failed to verify")
        if old_bare.info.is_void(now):
            self._tickets[ticket_id] = ticket
            raise ExpiredCoinError("old coin is past its hard expiry and void")
        if not (proof_timestamp <= now <= proof_timestamp + 300):
            self._tickets[ticket_id] = ticket
            raise InvalidPaymentError("renewal proof timestamp outside the accepted window")
        d_star = self.params.hashes.H0(
            *_bare_renewal_parts(old_bare), "renewal", proof_timestamp, proof_salt
        )
        response = RepresentationResponse(r1=r1_star, r2=r2_star)
        from repro.crypto.representation import verify_response

        if not verify_response(
            self.params.group, old_bare.commitment_a, old_bare.commitment_b, d_star, response
        ):
            self._tickets[ticket_id] = ticket
            raise InvalidPaymentError("ownership proof on old coin failed to verify")

        refusal = self._find_prior_use(old_bare, d_star, response)
        if refusal is not None:
            if self.journal is not None:
                self.journal.drop_ticket(ticket_id)
            obs.counter_inc("broker_renewals_refused_total")
            raise RenewalRefusedError(refusal)
        obs.counter_inc("broker_renewals_total")

        record = _RenewalRecord(
            bare=old_bare, challenge=d_star, response=response, renewed_at=now
        )
        with self._journal_scope():
            self._renewals[old_bare] = record
            if self.journal is not None:
                self.journal.record_renewal(record)
                self.journal.drop_ticket(ticket_id)
        return self._signer.respond(ticket.session, e)

    def _find_prior_use(
        self, old_bare: BareCoin, d_star: int, response: RepresentationResponse
    ) -> DoubleSpendProof | None:
        """Extract secrets if the old coin was already deposited or renewed."""
        prior: tuple[int, RepresentationResponse] | None = None
        deposit = self._deposits.get(old_bare)
        if deposit is not None:
            transcript = deposit.signed.transcript
            prior = (transcript.challenge(self.params), transcript.response)
        else:
            renewal = self._renewals.get(old_bare)
            if renewal is not None:
                prior = (renewal.challenge, renewal.response)
        if prior is None:
            return None
        secrets = extract_representations(
            prior[0], prior[1], d_star, response, self.params.group.q
        )
        return DoubleSpendProof.from_secrets(old_bare.digest(self.params), secrets)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def purge_expired_records(self, now: int) -> int:
        """Drop transcript records for coins past their hard expiry.

        Algorithm 3 stores transcripts "until the coins become uncashable";
        renewal transcripts likewise live until the old coin's second
        expiration date.

        Returns:
            Number of records removed.
        """
        removed = 0
        with self._journal_scope():
            for space, store in (
                ("deposits", self._deposits),
                ("renewals", self._renewals),
            ):
                stale = [bare for bare in store if bare.info.is_void(now)]
                for bare in stale:
                    del store[bare]
                    if self.journal is not None:
                        self.journal.drop_record(space, bare)
                    removed += 1
        return removed

    def merchant_balance(self, merchant_id: str) -> int:
        """Ledger balance of a merchant's revenue account."""
        return self.ledger.balance(f"revenue:{merchant_id}")

    def security_deposit_balance(self, merchant_id: str) -> int:
        """Remaining security deposit of a merchant."""
        return self.ledger.balance(self._escrow_account(merchant_id))

    def witness_performance(self) -> dict[str, float]:
        """Signed-coin counts per witness, usable as next-version weights."""
        return {
            merchant_id: float(account.coins_witnessed + 1)
            for merchant_id, account in self.merchants.items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_witness_assignment(self, coin: Coin) -> None:
        """Check the coin's witness against the broker's own table.

        The broker trusts its own records, so this is one ``Hash`` (the
        digest) and table lookups — no signature verification.

        Raises:
            WrongWitnessError: stale version or wrong witness/range.
        """
        table = self.tables.get(coin.info.list_version)
        if table is None:
            raise WrongWitnessError(
                f"coin references unknown witness list v{coin.info.list_version}"
            )
        digest = coin.digest(self.params)
        expected = table.witness_for(digest)
        if expected.merchant_id != coin.witness_id or expected.range != coin.witness_entry.range:
            raise WrongWitnessError("coin's attached witness entry does not match the table")

    def _credit(self, merchant_id: str, amount: int, source: str) -> None:
        self.ledger.transfer(source, f"revenue:{merchant_id}", amount, memo="coin deposit")

    def _require_merchant(self, merchant_id: str) -> MerchantAccount:
        account = self.merchants.get(merchant_id)
        if account is None:
            raise UnknownMerchantError(f"merchant {merchant_id!r} is not registered")
        return account

    @staticmethod
    def _escrow_account(merchant_id: str) -> str:
        return f"deposit:{merchant_id}"


def _bare_renewal_parts(bare: BareCoin) -> tuple[object, ...]:
    """Hash parts for the renewal challenge over the *bare* coin.

    Renewal (Algorithm 4) exchanges the bare coin; the witness entry is
    irrelevant to the broker, so the challenge binds the bare coin only.
    """
    return bare.hash_parts()


__all__ = [
    "Broker",
    "DepositOutcome",
    "DepositResult",
    "MerchantAccount",
]
