"""The store's obs instrumentation: fsyncs, WAL bytes, replay."""

import pytest

from repro import obs
from repro.store import Store


@pytest.fixture(autouse=True)
def metrics():
    obs.reset()
    obs.enable()
    yield obs.registry()
    obs.disable()
    obs.reset()


def test_fsync_and_wal_bytes_metrics(tmp_path, metrics):
    store = Store(tmp_path, backend="memory", shards=1)
    store.put("deposits", "00ab", {"amount": 25})
    store.close()
    assert metrics.counter_value("store_fsyncs_total") >= 1
    assert metrics.gauge("store_wal_bytes").value > 0


def test_replay_metrics_cover_records_and_torn_bytes(tmp_path, metrics):
    store = Store(tmp_path, backend="memory", shards=1)
    store.put("deposits", "00ab", {"amount": 25})
    store.put("deposits", "ffcd", {"amount": 50})
    store.close()
    with (tmp_path / "shard-00" / "wal.log").open("ab") as handle:
        handle.write(b"\x00\x01")  # torn header

    reopened = Store(tmp_path, backend="memory", shards=1)
    reopened.recover()
    reopened.close()
    assert metrics.counter_value("store_replayed_records_total") == 2.0
    assert metrics.counter_value("store_wal_torn_bytes_total") == 2.0
    summary = metrics.histogram("store_replay_ms").summary()
    assert summary["count"] == 1

