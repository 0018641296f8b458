"""Broker and witness state persistence over the durable store.

Section 3: the broker is "a dedicated (but not necessarily on-line)
server" — it goes down, restarts, and must come back with its signing
keys, merchant registry, witness tables and (critically) its deposit and
renewal databases intact: forgetting a deposited coin would let the same
coin be cashed twice across a restart. The witnesses carry the same
burden for their commitment and spent-coin tables.

This module maps that state onto the :mod:`repro.store` space schema and
keeps it there: :func:`attach_broker_store` / :func:`attach_witness_store`
recover a store, restore the party from it (or write the party's state
into an empty one) and hook the party to it, so every mutation is
appended to the write-ahead log *before* the mutating method returns
(journal-before-acknowledge). The hooks stage their writes in the
party step's store operation, which writes them at its commit (the last
write of a key wins) or drops them if the step fails.
:func:`broker_spaces` / :func:`restore_broker` are the whole state in
one piece — what a journaled store holds, and how it is read back.

There is one record format, and it is the wire codec's. A stored value
is the string ``serialize.encode(record.to_record())``, where each
record type's ``to_record`` / ``from_record(fields, prefix)`` pair sits
beside its dataclass (``core/{broker,witness,witness_ranges,bank}.py``)
and is composed from the ``to_wire`` / ``from_wire`` of the transcripts
and coins inside it; reading is ``X.from_record(serialize.decode(value))``.
So the ``signed.*`` fields of a stored deposit are byte-identical to the
``signed.*`` fields of the ``deposit`` request that carried it, and this
module holds hooks, not encoders (a deposit that came over the wire is
stored from the fields it was received in, by
:meth:`_DepositRecord.text_from_wire`, to the same bytes). A value
that is not such a string — a state directory written when records were
nested JSON objects — is refused with
:class:`~repro.store.StoreCorruptError` before any of the broker is
touched. The store contains the broker's SECRET keys; a
deployment would encrypt it at rest — key management is out of scope
here, as it is in the paper.

Space schema (``spaces`` marked with * shard by coin-hash prefix):

========================  =====================================================
space                     contents
========================  =====================================================
``meta``                  account name, both secret keys, version/ticket ctrs
``merchants``             one record per registered merchant
``tables``                one record per published witness table version
``deposits`` *            cleared deposits, keyed by hex coin digest
``renewals`` *            renewal transcripts, keyed by hex coin digest
``tickets``               in-flight withdrawal/renewal sessions
``batches``               in-flight batch-withdrawal sessions
``ledger``                every ledger movement, keyed by zero-padded sequence
``faults``                the witness-fault log, keyed by sequence
``commitments:<id>`` *    a witness's outstanding commitments
``spent:<id>`` *          a witness's spent-coin records
``witness:<id>``          a witness's counters (``signed_count``)
========================  =====================================================

Ledger balances, ``minted`` and ``burned`` are not stored — they are
rebuilt by replaying the journaled history through the real ledger
methods, so the persisted form cannot drift from the arithmetic.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from contextlib import AbstractContextManager
from typing import TypeVar

from repro.core.bank import Ledger, LedgerEntry, entry_from_record, entry_to_record
from repro.core.broker import (
    Broker,
    FaultEntry,
    MerchantAccount,
    _BrokerMeta,
    _DepositRecord,
    _RenewalRecord,
    _WithdrawalTicket,
    fault_from_record,
    fault_to_record,
)
from repro.core.coin import BareCoin
from repro.core.exceptions import ProtocolViolationError
from repro.core.params import SystemParams
from repro.core.witness import WitnessService, _CommitmentRecord, _SpentRecord
from repro.core.witness_ranges import WitnessAssignmentTable
from repro.crypto import counters
from repro.crypto.blind import PartiallyBlindSigner
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.serialize import WireFields, as_int, decode, encode
from repro.store import RecoveryStats, Store, StoreCorruptError

#: What a store hands back: ``{space: {key: value}}``. The values this
#: module writes are encoded record strings; what it reads is checked.
Spaces = Mapping[str, Mapping[str, object]]

#: Zero-padding width for sequence-numbered keys (ledger, faults); keeps
#: lexicographic key order equal to numeric order in every backend.
_SEQ_WIDTH = 12

_R = TypeVar("_R")


def _seq_key(seq: int) -> str:
    return f"{seq:0{_SEQ_WIDTH}d}"


def _bare_key(bare: BareCoin, params: SystemParams) -> str:
    """Hex coin digest — the storage key and shard-routing prefix.

    Suppressed: persistence bookkeeping must not perturb the Table 1
    operation counts the protocol tests assert.
    """
    with counters.suppressed():
        return f"{bare.digest(params):x}"


def _parse(space: str, key: str, value: object, from_record: Callable[[dict[str, str]], _R]) -> _R:
    """Read one stored value back into its record.

    Raises:
        StoreCorruptError: the value is not an encoded record string (the
            state was written in the older nested-JSON record format),
            or the record in it does not parse (an indexed group spelled
            other than ``0..n-1`` included).
    """
    if not isinstance(value, str):
        raise StoreCorruptError(
            f"{space}/{key}: stored value is a {type(value).__name__}, not a "
            "wire-codec record string; this state was written in the older "
            "nested-JSON record format, which is not read"
        )
    try:
        return from_record(decode(value))
    except (KeyError, ValueError, ProtocolViolationError) as error:
        raise StoreCorruptError(f"{space}/{key}: malformed record ({error!r})") from error


def _parse_space(
    spaces: Spaces, space: str, from_record: Callable[[dict[str, str]], _R]
) -> dict[str, _R]:
    """Every record of one space by its key, in key order."""
    return {
        key: _parse(space, key, value, from_record)
        for key, value in sorted(spaces.get(space, {}).items())
    }


# ----------------------------------------------------------------------
# Whole-state dump / restore
# ----------------------------------------------------------------------

def _meta_record(broker: Broker) -> str:
    """The ``meta`` singleton: account, keys, counters.

    A tiny constant-size record, built directly — the journal re-writes
    it on every counter advance (ticket opened, table published), so it
    must never require serializing the broker's accumulated state.
    """
    meta = _BrokerMeta(
        account=broker.account,
        blind_secret=broker._signer._secret,
        sign_secret=broker._sign_key.secret,
        next_version=broker._next_version,
        next_ticket=_peek_ticket_counter(broker),
    )
    return encode(meta.to_record())


def broker_spaces(broker: Broker) -> dict[str, dict[str, str]]:
    """The broker's complete logical state, as a store journaling it holds it.

    ``Store.dump()`` of a store attached to ``broker`` equals this.
    """
    params = broker.params
    spaces = {
        "meta": {"state": _meta_record(broker)},
        "merchants": {
            merchant_id: encode(account.to_record())
            for merchant_id, account in broker.merchants.items()
        },
        "tables": {
            str(version): encode(table.to_record())
            for version, table in broker.tables.items()
        },
        "deposits": {
            _bare_key(bare, params): encode(record.to_record())
            for bare, record in broker._deposits.items()
        },
        "renewals": {
            _bare_key(bare, params): encode(renewal.to_record())
            for bare, renewal in broker._renewals.items()
        },
        "tickets": {
            str(ticket_id): encode(ticket.to_record())
            for ticket_id, ticket in broker._tickets.items()
        },
        "batches": {
            str(ticket_id): encode(_WithdrawalTicket.batch_to_record(batch))
            for ticket_id, batch in broker._batch_tickets.items()
        },
        "ledger": {
            _seq_key(seq): encode(entry_to_record(entry))
            for seq, entry in enumerate(broker.ledger.history)
        },
        "faults": {
            _seq_key(seq): encode(fault_to_record(entry))
            for seq, entry in enumerate(broker.witness_fault_log)
        },
    }
    return {space: table for space, table in spaces.items() if table}


def restore_broker(broker: Broker, spaces: Spaces) -> None:
    """Rebuild a broker's state in place from a space-schema dump.

    In-place (rather than returning a fresh broker) so that everything
    already holding a reference — simulation dispatchers, invariant
    checkers, daemon registries — observes the recovered state. Every
    record is parsed before the broker is touched: a dump that does not
    read leaves the broker exactly as it was.

    Raises:
        ValueError: the dump has no ``meta`` record (not broker state).
        StoreCorruptError: a value is not a record this module wrote, or
            the restored books fail :func:`_reconcile`.
    """
    if "state" not in spaces.get("meta", {}):
        raise ValueError("broker state dump has no 'meta' record")
    meta = _parse("meta", "state", spaces["meta"]["state"], _BrokerMeta.from_record)
    merchants = _parse_space(spaces, "merchants", MerchantAccount.from_record)
    tables = _parse_space(spaces, "tables", WitnessAssignmentTable.from_record)
    deposits = _parse_space(spaces, "deposits", _DepositRecord.from_record)
    renewals = _parse_space(spaces, "renewals", _RenewalRecord.from_record)
    tickets = _parse_space(spaces, "tickets", _WithdrawalTicket.from_record)
    batches = _parse_space(spaces, "batches", _WithdrawalTicket.batch_from_record)
    faults = _parse_space(spaces, "faults", fault_from_record)
    ledger = _parse_space(spaces, "ledger", entry_from_record)
    tickets_by_id = {int(key): ticket for key, ticket in tickets.items()}
    batches_by_id = {int(key): batch for key, batch in batches.items()}

    params = broker.params
    broker.account = meta.account
    broker._signer = PartiallyBlindSigner(
        params.group, params.hashes, secret=meta.blind_secret
    )
    sign_secret = meta.sign_secret
    with counters.suppressed():
        sign_public = params.group.exp(params.group.g, sign_secret)
    broker._sign_key = SchnorrKeyPair(
        group=params.group, secret=sign_secret, public=sign_public
    )
    broker._next_version = meta.next_version
    broker._ticket_ids = itertools.count(meta.next_ticket)

    broker.merchants.clear()
    broker.merchants.update((account.merchant_id, account) for account in merchants.values())
    broker.tables.clear()
    broker.tables.update((table.version, table) for table in tables.values())
    broker._deposits.clear()
    broker._deposits.update(
        (record.signed.transcript.coin.bare, record) for record in deposits.values()
    )
    broker._renewals.clear()
    broker._renewals.update((renewal.bare, renewal) for renewal in renewals.values())
    broker._tickets.clear()
    broker._tickets.update(tickets_by_id)
    broker._batch_tickets.clear()
    broker._batch_tickets.update(batches_by_id)
    broker.witness_fault_log[:] = faults.values()
    _replay_ledger(broker.ledger, list(ledger.values()))
    _reconcile(broker)


def _reconcile(broker: Broker) -> None:
    """Cross-check a restored broker's ledger against its deposit records.

    Every deposit/witness-fault record is created alongside exactly one
    ``"coin deposit"`` ledger credit, inside the same atomic store
    operation; purging expired records removes records but never ledger
    history. The checkable invariant is therefore one-directional:

        ``len(deposits) + len(faults) <= count(memo == "coin deposit")``

    A violation means a transcript record was journaled without its
    funding movement — exactly the half-journaled state atomic commit
    exists to prevent — and the recovered state must not be trusted.
    """
    credits = sum(
        1 for _src, _dst, memo, _amount in broker.ledger.history
        if memo == "coin deposit"
    )
    records = len(broker._deposits) + len(broker.witness_fault_log)
    problems: list[str] = []
    if records > credits:
        problems.append(
            f"{records} deposit/witness-fault record(s) but only {credits} "
            "'coin deposit' ledger credit(s) — a transcript record was "
            "journaled without its funding movement"
        )
    if not broker.ledger.conserved():
        problems.append(
            "recovered ledger does not conserve money "
            f"(minted={broker.ledger.minted} burned={broker.ledger.burned})"
        )
    if problems:
        raise StoreCorruptError(
            "recovered broker state failed reconciliation: " + "; ".join(problems)
        )


def _replay_ledger(ledger: Ledger, entries: list[LedgerEntry]) -> None:
    """Rebuild balances/minted/burned by replaying journaled movements.

    The journal callback is detached during replay so restoration never
    re-journals its own input.
    """
    callback = ledger.on_entry
    ledger.on_entry = None
    try:
        ledger.accounts.clear()
        ledger.minted = 0
        ledger.burned = 0
        ledger.history.clear()
        for source, destination, memo, amount in entries:
            if source == "<external>":
                ledger.mint(destination, amount, memo=memo)
            elif destination == "<external>":
                ledger.burn(source, amount, memo=memo)
            else:
                ledger.transfer(source, destination, amount, memo=memo)
    finally:
        ledger.on_entry = callback


def _peek_ticket_counter(broker: Broker) -> int:
    """Read the next ticket id without consuming it."""
    peeked = next(broker._ticket_ids)
    broker._ticket_ids = itertools.count(peeked)
    return peeked


def witness_spaces(witness: WitnessService) -> dict[str, dict[str, str]]:
    """A witness's commitment/spent tables in the store space schema."""
    identity = witness.merchant_id
    return {
        f"commitments:{identity}": {
            f"{coin_hash:x}": encode(commitment.to_record())
            for coin_hash, commitment in witness._commitments.items()
        },
        f"spent:{identity}": {
            f"{coin_hash:x}": encode(spent.to_record())
            for coin_hash, spent in witness._spent.items()
        },
        f"witness:{identity}": {"signed_count": _signed_count_record(witness)},
    }


def _signed_count_record(witness: WitnessService) -> str:
    return encode({"signed_count": witness.signed_count})


def restore_witness(witness: WitnessService, spaces: Spaces) -> None:
    """Rebuild a witness's tables in place from a space-schema dump.

    Raises:
        StoreCorruptError: a value is not a record this module wrote
            (raised before the witness is touched).
    """
    identity = witness.merchant_id
    commitments = _parse_space(spaces, f"commitments:{identity}", _CommitmentRecord.from_record)
    spent = _parse_space(spaces, f"spent:{identity}", _SpentRecord.from_record)
    counts = _parse_space(
        spaces, f"witness:{identity}", lambda fields: as_int(fields["signed_count"])
    )
    commitments_by_hash = {int(key, 16): record for key, record in commitments.items()}
    spent_by_hash = {int(key, 16): record for key, record in spent.items()}

    witness._commitments.clear()
    witness._commitments.update(commitments_by_hash)
    witness._spent.clear()
    witness._spent.update(spent_by_hash)
    witness.signed_count = counts.get("signed_count", 0)


# ----------------------------------------------------------------------
# Journaling over a durable store
# ----------------------------------------------------------------------

class BrokerJournal:
    """Mirrors every broker mutation into a :class:`~repro.store.Store`.

    Hook methods are invoked by :class:`Broker` after each in-memory
    mutation and *before* the mutating method returns. Each hook stages
    its writes in a :meth:`Store.operation` scope, whose commit (WAL
    write and fsync plus commit marker) is the durability point —
    journal-before-acknowledge.
    When the broker opens an :meth:`operation` scope around a whole
    protocol step, the hooks it fires *join* that scope, so everything
    the step journals — ledger movements included — commits atomically:
    recovery replays all of it or none of it, never a prefix.
    """

    def __init__(self, broker: Broker, store: Store) -> None:
        self.broker = broker
        self.store = store

    def operation(self) -> AbstractContextManager[None]:
        """One atomic durability unit (see :meth:`Store.operation`)."""
        return self.store.operation()

    # -- hooks (called from Broker) ------------------------------------
    def record_merchant(self, account: MerchantAccount) -> None:
        """Journal one merchant record (registration or counters)."""
        with self.store.operation():
            self.store.put("merchants", account.merchant_id, encode(account.to_record()))

    def record_table(self, table: WitnessAssignmentTable) -> None:
        """Journal a newly published witness table and the version counter."""
        with self.store.operation():
            self.store.put("tables", str(table.version), encode(table.to_record()))
            self._put_meta()

    def record_ticket(self, ticket_id: int, ticket: _WithdrawalTicket) -> None:
        """Journal an opened withdrawal/renewal session."""
        with self.store.operation():
            self.store.put("tickets", str(ticket_id), encode(ticket.to_record()))
            self._put_meta()

    def drop_ticket(self, ticket_id: int) -> None:
        """Journal the close of a withdrawal/renewal session."""
        with self.store.operation():
            self.store.delete("tickets", str(ticket_id))

    def record_batch(self, ticket_id: int, batch: list[_WithdrawalTicket]) -> None:
        """Journal an opened batch-withdrawal session."""
        with self.store.operation():
            self.store.put(
                "batches", str(ticket_id), encode(_WithdrawalTicket.batch_to_record(batch))
            )
            self._put_meta()

    def drop_batch(self, ticket_id: int) -> None:
        """Journal the close of a batch-withdrawal session."""
        with self.store.operation():
            self.store.delete("batches", str(ticket_id))

    def record_deposit(
        self, bare: BareCoin, record: _DepositRecord, received: WireFields | None = None
    ) -> None:
        """Journal a cleared deposit before the merchant is told.

        ``received`` is the transcript's wire fields as the deposit
        request carried them: the record is then built from that text
        (:meth:`_DepositRecord.text_from_wire`), not re-encoded from
        objects.
        """
        value = (
            encode(record.to_record())
            if received is None
            else _DepositRecord.text_from_wire(received, record.deposited_at)
        )
        with self.store.operation():
            self.store.put("deposits", _bare_key(bare, self.broker.params), value)

    def record_renewal(self, record: _RenewalRecord) -> None:
        """Journal a renewal transcript before the response is sent."""
        with self.store.operation():
            self.store.put(
                "renewals",
                _bare_key(record.bare, self.broker.params),
                encode(record.to_record()),
            )

    def record_fault(self, seq: int, entry: FaultEntry) -> None:
        """Journal one witness-fault log entry."""
        with self.store.operation():
            self.store.put("faults", _seq_key(seq), encode(fault_to_record(entry)))

    def drop_record(self, space: str, bare: BareCoin) -> None:
        """Journal a purge of one deposit/renewal record."""
        with self.store.operation():
            self.store.delete(space, _bare_key(bare, self.broker.params))

    def on_ledger_entry(self, seq: int, entry: LedgerEntry) -> None:
        """Journal one ledger movement (wired to :attr:`Ledger.on_entry`).

        Inside a broker operation scope this joins it — the movement
        commits together with the records of the step that caused it;
        a ledger movement outside any scope commits on its own.
        """
        with self.store.operation():
            self.store.put("ledger", _seq_key(seq), encode(entry_to_record(entry)))

    def _put_meta(self) -> None:
        self.store.put("meta", "state", _meta_record(self.broker))


class WitnessJournal:
    """Mirrors a witness's table mutations into a store (same contract
    as :class:`BrokerJournal`: each hook is one atomic
    :meth:`Store.operation`, committed before the method returns).
    """

    def __init__(self, witness: WitnessService, store: Store) -> None:
        self.witness = witness
        self.store = store
        self._commit_space = f"commitments:{witness.merchant_id}"
        self._spent_space = f"spent:{witness.merchant_id}"
        self._meta_space = f"witness:{witness.merchant_id}"

    def operation(self) -> AbstractContextManager[None]:
        """One atomic durability unit (see :meth:`Store.operation`)."""
        return self.store.operation()

    def record_commitment(self, coin_hash: int, record: _CommitmentRecord) -> None:
        """Journal an issued commitment."""
        with self.store.operation():
            self.store.put(self._commit_space, f"{coin_hash:x}", encode(record.to_record()))

    def drop_commitment(self, coin_hash: int) -> None:
        """Journal a consumed or expired commitment."""
        with self.store.operation():
            self.store.delete(self._commit_space, f"{coin_hash:x}")

    def record_spent(self, coin_hash: int, record: _SpentRecord) -> None:
        """Journal a spent-coin record (first spend or extracted proof).

        The spent record (sharded by coin hash) and the signer counter
        (pinned to shard 0) commit as one unit.
        """
        with self.store.operation():
            self.store.put(self._spent_space, f"{coin_hash:x}", encode(record.to_record()))
            self.store.put(self._meta_space, "signed_count", _signed_count_record(self.witness))

    def drop_spent(self, coin_hash: int) -> None:
        """Journal a purged spent-coin record."""
        with self.store.operation():
            self.store.delete(self._spent_space, f"{coin_hash:x}")


_Party = TypeVar("_Party", Broker, WitnessService)


def _recover_into(
    party: _Party,
    store: Store,
    own_space: str,
    spaces_of: Callable[[_Party], Mapping[str, Mapping[str, str]]],
    restore: Callable[[_Party, Spaces], None],
) -> RecoveryStats:
    """Recover ``store``; restore ``party`` from it, or journal the party's
    state as the baseline of an empty one. A store without ``own_space``
    is another party's, and is refused before ``party`` is touched."""
    stats = store.recover()
    spaces = store.dump()
    if own_space in spaces:
        restore(party, spaces)
        # A restart rebuilds the seeded ``rng`` where the first boot began:
        # signing from it would reuse a nonce, which gives the key away.
        party.rng = None
    elif spaces:
        raise StoreCorruptError(
            f"the store holds {', '.join(spaces)} but no {own_space!r}: "
            "it is another party's state"
        )
    else:
        with store.operation():
            for space, table in spaces_of(party).items():
                for key, value in table.items():
                    store.put(space, key, value)
    return stats


def attach_broker_store(broker: Broker, store: Store) -> RecoveryStats:
    """Recover ``store`` into ``broker`` and journal every later mutation to it.

    The one call a restarting daemon (or chaos scenario) makes: a store
    holding broker state rebuilds the broker in place
    (:func:`restore_broker`); an empty store is given the broker's
    current state as its baseline.

    Returns:
        The recovery statistics (all-zero for a brand-new store).

    Raises:
        StoreCorruptError: the store holds another party's state or values
            this module did not write (the broker is left untouched), or
            the restored books fail reconciliation.
    """
    stats = _recover_into(broker, store, "meta", broker_spaces, restore_broker)
    broker.journal = journal = BrokerJournal(broker, store)
    broker.ledger.on_entry = journal.on_ledger_entry
    return stats


def attach_witness_store(witness: WitnessService, store: Store) -> RecoveryStats:
    """The witness's mirror of :func:`attach_broker_store`."""
    stats = _recover_into(
        witness, store, f"witness:{witness.merchant_id}", witness_spaces, restore_witness
    )
    witness.journal = WitnessJournal(witness, store)
    return stats


__all__ = [
    "BrokerJournal",
    "WitnessJournal",
    "attach_broker_store",
    "attach_witness_store",
    "broker_spaces",
    "restore_broker",
    "restore_witness",
    "witness_spaces",
]
