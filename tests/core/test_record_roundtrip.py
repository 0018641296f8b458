"""State at rest is the wire codec: every record type, round-tripped.

A value in the store (and the wallet file) is
``serialize.encode(record.to_record())`` and is read back with
``X.from_record(serialize.decode(value))``. The property held for every
record type is that this returns the record, whatever it holds: every
optional present or absent, every shape of a committed value, empty and
full batches, and identifiers and memos made of the characters the codec
has to quote. No oracle is needed; the old JSON codecs are gone.

One example test holds the claim the persistence docstring makes: the
``signed.*`` part of a stored deposit is byte-for-byte the ``signed.*``
part of the ``deposit`` request that carried it.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.bank import entry_from_record, entry_to_record
from repro.core.broker import (
    MerchantAccount,
    _BrokerMeta,
    _DepositRecord,
    _RenewalRecord,
    _WithdrawalTicket,
    fault_from_record,
    fault_to_record,
)
from repro.core.client import StoredCoin, Wallet
from repro.core.coin import BareCoin, Coin
from repro.core.info import CoinInfo
from repro.core.persistence import attach_broker_store
from repro.core.protocols import run_deposit, run_payment
from repro.core.transcripts import (
    DoubleSpendProof,
    PaymentTranscript,
    SignedTranscript,
    WitnessCommitment,
)
from repro.core.witness import _CommitmentRecord, _SpentRecord
from repro.core.witness_ranges import SignedWitnessEntry, WitnessAssignmentTable, WitnessRange
from repro.crypto.blind import PartiallyBlindSignature, SignerSession
from repro.crypto.representation import Representation, RepresentationPair, RepresentationResponse
from repro.crypto.schnorr import SchnorrSignature
from repro.crypto.serialize import as_text, decode, encode, flatten
from repro.store import Store
from tests.conftest import other_merchant

#: Merchant ids, account names and memos: plain, and made of what the
#: codec must quote or could mistake for structure.
NAMES = st.text(alphabet="abZ09-_~ &=%+./:é日\n", max_size=12)
INTS = st.one_of(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**160),
    st.integers(min_value=2**1023, max_value=2**1024 - 1),
)
SIGNATURES = st.builds(SchnorrSignature, e=INTS, s=INTS)
INFOS = st.builds(
    lambda denomination, version, soft, lifetime: CoinInfo(
        denomination, version, soft, soft + lifetime
    ),
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=1, max_value=2**32),
)
BARES = st.builds(
    BareCoin,
    signature=st.builds(PartiallyBlindSignature, INTS, INTS, INTS, INTS),
    info=INFOS,
    commitment_a=INTS,
    commitment_b=INTS,
)
ENTRIES = st.builds(
    lambda version, name, low, width, signature: SignedWitnessEntry(
        version, WitnessRange(name, low, low + width), signature
    ),
    st.integers(min_value=0, max_value=2**16),
    NAMES,
    INTS,
    st.integers(min_value=1, max_value=2**64),
    SIGNATURES,
)
COINS = st.builds(Coin, bare=BARES, witness_entry=ENTRIES)
TRANSCRIPTS = st.builds(
    PaymentTranscript,
    coin=COINS,
    response=st.builds(RepresentationResponse, r1=INTS, r2=INTS),
    merchant_id=NAMES,
    timestamp=INTS,
    salt=INTS,
)
SIGNED = st.builds(SignedTranscript, transcript=TRANSCRIPTS, witness_signature=SIGNATURES)
REPRESENTATIONS = st.builds(Representation, INTS, INTS)
PROOFS = st.builds(
    DoubleSpendProof,
    coin_hash=INTS,
    x=st.none() | REPRESENTATIONS,
    y=st.none() | REPRESENTATIONS,
)
TICKETS = st.builds(
    _WithdrawalTicket,
    info=INFOS,
    session=st.builds(SignerSession, u=INTS, s=INTS, d=INTS, z=INTS),
    paid_by=st.none() | NAMES,
)
#: The three shapes ``WitnessService._committed_value`` builds, and any
#: other mix of the three part types (an int, a str and a bytes part that
#: spell the same thing must come back as what they were).
COMMITTED_VALUES = st.one_of(
    st.tuples(st.just("fresh"), INTS),
    st.lists(INTS, max_size=4).map(lambda parts: ("secrets", *parts)),
    st.tuples(st.just("salted-transcript"), INTS, st.binary(max_size=64)),
    st.lists(st.one_of(INTS, NAMES, st.binary(max_size=8)), max_size=5).map(tuple),
)


@st.composite
def tables(draw) -> WitnessAssignmentTable:
    version = draw(st.integers(min_value=0, max_value=2**16))
    widths = draw(st.lists(st.integers(min_value=1, max_value=2**64), min_size=1, max_size=6))
    entries, low = [], 0
    for width in widths:
        entries.append(
            SignedWitnessEntry(
                version, WitnessRange(draw(NAMES), low, low + width), draw(SIGNATURES)
            )
        )
        low += width
    return WitnessAssignmentTable(version=version, entries=tuple(entries), space=low)


def at_rest(record: dict[str, object]) -> dict[str, str]:
    """What reading back what was written hands to ``from_record``."""
    return decode(encode(record))


def assert_round_trips(record, to_record=None, from_record=None) -> None:
    to_record = to_record or type(record).to_record
    from_record = from_record or type(record).from_record
    assert from_record(at_rest(to_record(record))) == record
    # ... and from under a prefix, beside a decoy of the same shape.
    nested = {"outer": to_record(record), "decoy": to_record(record), "zz": 1}
    assert from_record(at_rest(nested), "outer.") == record


@given(st.builds(MerchantAccount, NAMES, INTS, INTS, INTS, INTS))
def test_merchant_account(account):
    assert_round_trips(account)


@given(st.builds(_DepositRecord, signed=SIGNED, deposited_at=INTS))
def test_deposit_record(record):
    assert_round_trips(record)


@given(
    st.builds(
        _RenewalRecord,
        bare=BARES,
        challenge=INTS,
        response=st.builds(RepresentationResponse, r1=INTS, r2=INTS),
        renewed_at=INTS,
    )
)
def test_renewal_record(record):
    assert_round_trips(record)


@given(TICKETS)
def test_withdrawal_ticket_with_its_signer_session(ticket):
    assert_round_trips(ticket)


@given(st.lists(TICKETS, max_size=32))
def test_ticket_batch(batch):
    record = _WithdrawalTicket.batch_to_record(batch)
    assert _WithdrawalTicket.batch_from_record(at_rest(record)) == batch


@given(TICKETS)
def test_empty_and_full_ticket_batches(ticket):
    for batch in ([], [ticket] * 32):
        record = _WithdrawalTicket.batch_to_record(batch)
        assert _WithdrawalTicket.batch_from_record(at_rest(record)) == batch


@given(tables())
def test_witness_assignment_table(table):
    assert_round_trips(table)


@given(
    st.builds(
        _CommitmentRecord,
        commitment=st.builds(WitnessCommitment, NAMES, INTS, INTS, INTS, INTS, SIGNATURES),
        v=COMMITTED_VALUES,
    )
)
def test_commitment_record_with_its_committed_value(record):
    assert_round_trips(record)
    restored = _CommitmentRecord.from_record(at_rest(record.to_record()))
    assert [type(part) for part in restored.v] == [type(part) for part in record.v]


@given(st.builds(_SpentRecord, st.none() | TRANSCRIPTS, st.none() | INTS, st.none() | PROOFS))
def test_spent_record_with_each_optional_present_or_absent(record):
    assert_round_trips(record)


@given(INTS, REPRESENTATIONS)
def test_spent_record_holding_a_proof_of_x_only(coin_hash, x):
    # What the witness keeps after the first detection.
    assert_round_trips(_SpentRecord(None, None, DoubleSpendProof(coin_hash, x=x, y=None)))


@given(st.tuples(NAMES, SIGNED, SIGNED))
def test_fault_log_entry(entry):
    assert_round_trips(entry, fault_to_record, fault_from_record)


@given(st.tuples(NAMES, NAMES, NAMES, INTS))
def test_ledger_entry(entry):
    assert_round_trips(entry, entry_to_record, entry_from_record)


@given(st.builds(_BrokerMeta, NAMES, INTS, INTS, INTS, INTS))
def test_broker_meta(meta):
    assert_round_trips(meta)


STORED_COINS = st.builds(
    StoredCoin, coin=COINS, secrets=st.builds(RepresentationPair, REPRESENTATIONS, REPRESENTATIONS)
)


@given(STORED_COINS)
def test_stored_coin(stored):
    assert_round_trips(stored)


@given(st.lists(STORED_COINS, max_size=3, unique=True))
def test_wallet_file(tmp_path_factory, coins):
    path = tmp_path_factory.mktemp("wallet") / "wallet"
    Wallet(coins).save(path)
    assert Wallet.load(path).coins == coins


def test_secret_bearing_records_have_no_to_wire():
    # ``to_wire`` is network egress to the secret-flow lint; these never travel.
    assert not any(
        hasattr(cls, "to_wire") for cls in (StoredCoin, _WithdrawalTicket, SignerSession, _BrokerMeta)
    )


def test_a_stored_deposit_holds_the_transmitted_transcript_byte_for_byte(
    system, funded_client, tmp_path
):
    store = Store(tmp_path / "state", backend="memory", shards=2)
    attach_broker_store(system.broker, store)
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    signed = run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    (value,) = store.dump()["deposits"].values()
    store.close()

    fields = decode(value)
    sent = flatten({"signed": signed.to_wire()})
    assert {key: text for key, text in fields.items() if key.startswith("signed.")} == {
        key: as_text(item) for key, item in sent.items()
    }
    # The bytes themselves: the record's ``sn.*`` pairs are the request's.
    request = encode({"merchant_id": merchant.merchant_id, "signed": signed.to_wire()})
    assert [pair for pair in value.split("&") if pair.startswith("sn.")] == [
        pair for pair in request.split("&") if pair.startswith("sn.")
    ]
    assert set(fields) - set(sent) == {"deposited_at"}
