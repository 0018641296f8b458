"""Tests for the write-ahead log: framing, torn tails, recovery reads."""

import os

import pytest

from repro.store import MAGIC, StoreCorruptError, WriteAheadLog, scan_wal_bytes


def make_wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def test_round_trip_preserves_payloads_in_order(tmp_path):
    wal = make_wal(tmp_path)
    payloads = [b"first", b"second", b'{"op": "put"}']
    for payload in payloads:
        wal.append(payload)
    wal.close()
    assert make_wal(tmp_path).replay() == payloads


def test_empty_log_replays_to_nothing(tmp_path):
    wal = make_wal(tmp_path)
    assert wal.replay() == []


def test_torn_header_at_tail_is_truncated_not_fatal(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.close()
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(b"\x00\x00")  # 2 bytes: not even a full header
    healer = make_wal(tmp_path)
    assert healer.replay() == [b"durable"]
    assert healer.truncated_bytes == 2
    # The heal is durable: a second pass sees a clean log.
    fresh = make_wal(tmp_path)
    assert fresh.replay() == [b"durable"]
    assert fresh.truncated_bytes == 0


def test_torn_payload_at_tail_is_truncated_not_fatal(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.close()
    import struct
    import zlib

    torn = b"lost-payload"
    with open(tmp_path / "wal.log", "ab") as handle:
        # A full header promising more bytes than follow.
        handle.write(struct.pack(">II", len(torn) + 10, zlib.crc32(torn)) + torn)
    healer = make_wal(tmp_path)
    assert healer.replay() == [b"durable"]
    assert healer.truncated_bytes > 0


def test_crc_bad_final_record_counts_as_torn(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.append(b"torn-by-bitrot")
    wal.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a bit inside the final record's payload
    path.write_bytes(bytes(data))
    assert make_wal(tmp_path).replay() == [b"durable"]


def test_crc_mismatch_before_the_tail_is_fatal(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"first-record-payload")
    wal.append(b"second-record-payload")
    wal.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[len(MAGIC) + 8] ^= 0xFF  # corrupt the *first* record's payload
    path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptError, match="with data after it"):
        make_wal(tmp_path).replay()


def test_bad_magic_is_fatal(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"XXXXX-not-a-wal-file")
    with pytest.raises(StoreCorruptError, match="bad file magic"):
        make_wal(tmp_path).replay()


def test_file_shorter_than_magic_is_a_torn_creation(tmp_path):
    scanned = scan_wal_bytes(b"RW")
    assert scanned.problem is None
    assert scanned.torn_bytes == 2
    assert scanned.payloads == ()


def test_verify_reports_without_mutating(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.close()
    path = tmp_path / "wal.log"
    with open(path, "ab") as handle:
        handle.write(b"\x01\x02\x03")
    size_before = path.stat().st_size
    problems = make_wal(tmp_path).verify()
    assert problems and "torn tail" in problems[0]
    assert path.stat().st_size == size_before
    assert make_wal(tmp_path).verify() == problems


def test_reset_truncates_to_header_only(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"soon-compacted-away")
    wal.reset()
    wal.close()
    assert (tmp_path / "wal.log").read_bytes() == MAGIC
    assert make_wal(tmp_path).replay() == []


def test_open_heals_torn_tail_before_appending(tmp_path):
    """Appending to a damaged log must not bury the torn bytes mid-file."""
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.close()
    with open(tmp_path / "wal.log", "ab") as handle:
        handle.write(b"\x00\x00\x00")  # power died mid-header
    appender = make_wal(tmp_path)
    appender.append(b"after-the-crash")  # no replay() first
    appender.close()
    fresh = make_wal(tmp_path)
    assert fresh.replay() == [b"durable", b"after-the-crash"]
    assert fresh.truncated_bytes == 0


def test_open_refuses_to_append_past_bad_magic(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"XXXXX-not-a-wal-file")
    wal = make_wal(tmp_path)
    with pytest.raises(StoreCorruptError, match="bad file magic"):
        wal.append(b"must-not-land")
    assert path.read_bytes() == b"XXXXX-not-a-wal-file"


def test_open_heals_a_torn_creation(tmp_path):
    """A crash during file creation leaves a partial magic; open rewrites it."""
    path = tmp_path / "wal.log"
    path.write_bytes(MAGIC[:2])
    wal = make_wal(tmp_path)
    wal.append(b"first")
    wal.close()
    assert make_wal(tmp_path).replay() == [b"first"]


def test_the_first_append_after_replay_does_not_rescan_the_log(tmp_path, monkeypatch):
    """Recovery reads and checks the log once; the append that follows
    writes at the end replay left it, without reading the file again."""
    from repro.store import wal as wal_module

    wal = make_wal(tmp_path)
    for index in range(5):
        wal.append(b"record-%d" % index)
    wal.close()
    scans = []
    real_scan = wal_module.scan_wal_bytes

    def counting_scan(data):
        scans.append(len(data))
        return real_scan(data)

    monkeypatch.setattr(wal_module, "scan_wal_bytes", counting_scan)
    recovered = make_wal(tmp_path)
    assert len(recovered.replay()) == 5
    fsyncs = recovered.fsync_count
    recovered.append(b"after-recovery")
    assert len(scans) == 1
    assert recovered.fsync_count == fsyncs + 1
    recovered.close()
    assert make_wal(tmp_path).replay()[-1] == b"after-recovery"


def test_an_append_after_a_healing_replay_lands_after_the_last_good_record(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(b"durable")
    wal.close()
    path = tmp_path / "wal.log"
    good_size = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(b"\x00\x00\x00\x09torn")  # a header and half a payload
    healer = make_wal(tmp_path)
    assert healer.replay() == [b"durable"]
    assert healer.size_bytes == good_size
    healer.append(b"next")
    healer.close()
    data = path.read_bytes()
    assert len(data) == good_size + 8 + len(b"next")
    assert data[good_size + 8 :] == b"next"
    assert make_wal(tmp_path).replay() == [b"durable", b"next"]


def test_an_append_after_replaying_an_empty_file_writes_the_magic(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"")
    wal = make_wal(tmp_path)
    assert wal.replay() == []
    wal.append(b"first")
    wal.close()
    assert path.read_bytes().startswith(MAGIC)
    assert make_wal(tmp_path).replay() == [b"first"]


@pytest.mark.parametrize("torn_creation", [False, True], ids=["torn-record", "torn-magic"])
def test_a_healing_replay_fsyncs_the_healed_log_before_returning(
    tmp_path, monkeypatch, torn_creation
):
    """The truncate that drops a torn tail is made durable at once, so a
    crash after recovery cannot bring the torn bytes back in front of the
    records appended later."""
    from repro.store import wal as wal_module

    path = tmp_path / "wal.log"
    if torn_creation:
        path.write_bytes(MAGIC[:3])
        healed_size = len(MAGIC)
    else:
        wal = make_wal(tmp_path)
        wal.append(b"durable")
        wal.close()
        healed_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x09torn")
    synced_sizes = []
    real_fsync = wal_module.os.fsync

    def recording_fsync(fd):
        synced_sizes.append(os.fstat(fd).st_size)
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", recording_fsync)
    healer = make_wal(tmp_path)
    assert healer.replay() == ([] if torn_creation else [b"durable"])
    assert healer.truncated_bytes > 0
    assert synced_sizes == [healed_size]
    healer.close()
