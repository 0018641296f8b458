"""A state dir is read the same on either side of staged store operations.

``data/staged-ops-baseline`` was written by :func:`write_state` on the
store that journaled each ``put`` as it came (no staging, no coalescing,
a witness's account journaled once per deposited coin). The staged store
writes the same WAL record format, so:

* that dir recovers, here, to the dump the same workload leaves now;
* every record the staged store writes for the workload is one of the
  baseline's records, byte for byte, and every baseline record it does
  not write is a put that a later put of the same key in the same
  operation overwrites — so a reader that replays records in order, as
  the older store does, recovers the staged store's dir to the same dump.

To rebuild the baseline, run :func:`write_state` into an empty directory
on the older store.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.core.broker import Broker, _DepositRecord
from repro.core.params import test_params as small_params
from repro.core.persistence import attach_broker_store, broker_spaces
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto.serialize import decode, encode, flatten, nested, pack_batch, split_batch
from repro.store import Store, scan_wal_bytes

BASELINE = Path(__file__).parent / "data" / "staged-ops-baseline"
WITNESS = "alice-books"
MERCHANT = "bob-news"
SHARDS = 2


def write_state(directory: Path) -> Broker:
    """Withdraw and pay five coins, deposit one alone and four as a batch,
    re-deposit one; journaled to a two-shard store at ``directory``."""
    system = EcashSystem(
        merchant_ids=(WITNESS, MERCHANT),
        params=small_params(),
        seed=4646,
        weights={WITNESS: 1.0},
    )
    store = Store(directory, backend="memory", shards=SHARDS)
    attach_broker_store(system.broker, store)
    client = system.new_client()
    transcripts = []
    for _ in range(5):
        stored = run_withdrawal(client, system.broker, system.standard_info(25, 1))
        transcripts.append(
            run_payment(client, stored, system.merchant(MERCHANT), system.witness(WITNESS), 1)
        )
    system.broker.deposit(MERCHANT, transcripts[0], 2)
    system.broker.deposit_batch(MERCHANT, transcripts[1:] + transcripts[:1], 2)
    store.close()
    return system.broker


def recovered(directory: Path) -> dict[str, dict[str, object]]:
    store = Store(directory, backend="memory", shards=SHARDS)
    store.recover()
    dump = store.dump()
    store.close()
    return dump


def wal_records(directory: Path) -> list[bytes]:
    return [
        payload
        for index in range(SHARDS)
        for payload in scan_wal_bytes(
            (directory / f"shard-{index:02d}" / "wal.log").read_bytes()
        ).payloads
    ]


def test_the_baseline_state_dir_recovers_to_the_dump_the_workload_leaves_now(tmp_path):
    shutil.copytree(BASELINE, tmp_path / "baseline")
    broker = write_state(tmp_path / "now")
    assert recovered(tmp_path / "baseline") == recovered(tmp_path / "now") == broker_spaces(
        broker
    )


def test_the_staged_store_writes_the_baseline_records_minus_overwritten_puts(tmp_path):
    write_state(tmp_path / "now")
    baseline, now = wal_records(BASELINE), wal_records(tmp_path / "now")
    assert len(set(now)) == len(now)
    assert set(now) <= set(baseline)
    written = {
        (op["txn"], op["space"], op["key"])
        for op in map(json.loads, now)
        if op["op"] != "commit" and "txn" in op
    }
    overwritten = [json.loads(payload) for payload in baseline if payload not in set(now)]
    assert overwritten  # the batch journaled the witness's account once, not four times
    for op in overwritten:
        assert op["op"] == "put"
        assert (op["txn"], op["space"], op["key"]) in written


def test_a_deposit_record_built_from_received_text_is_the_encoded_record(params):
    system = EcashSystem(
        merchant_ids=(WITNESS, MERCHANT), params=params, seed=9, weights={WITNESS: 1.0}
    )
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, 1))
    signed = run_payment(client, stored, system.merchant(MERCHANT), system.witness(WITNESS), 1)
    expected = encode(_DepositRecord(signed=signed, deposited_at=1234).to_record())
    in_process = signed.to_wire()
    body = encode({"merchant_id": MERCHANT, "batch": pack_batch("t", [in_process])})
    ((_, received),) = split_batch(flatten(nested(decode(body))), "batch", "t")
    as_sent = flatten({"signed": in_process})
    for fields in (received, {key[len("signed."):]: value for key, value in as_sent.items()}):
        assert _DepositRecord.text_from_wire(fields, 1234) == expected
