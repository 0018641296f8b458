"""Host-speed correction: the arithmetic, and that nothing outlives ``keep_awake``."""

import asyncio
import os

import pytest

from bench import hostspeed
from bench.hostspeed import REFERENCE_CHUNK_S, HostSpeed, keep_awake
from bench.workloads import WORKLOADS, LifecycleRun


def test_slowdown_is_the_mean_reading_over_the_reference():
    host = HostSpeed([], None)
    assert host.slowdown(REFERENCE_CHUNK_S, REFERENCE_CHUNK_S) == pytest.approx(1.0)
    assert host.slowdown(1.2 * REFERENCE_CHUNK_S, 1.4 * REFERENCE_CHUNK_S) == pytest.approx(1.3)
    assert host.factors == pytest.approx([1.0, 1.3])


def test_a_fresh_reading_opens_the_next_block_and_a_stale_one_does_not(monkeypatch):
    readings = iter([0.001, 0.002, 0.003])
    monkeypatch.setattr(hostspeed, "_chunk", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "_CHUNKS", 1)
    host = HostSpeed([], None)
    assert host.sample() == 0.001
    assert host.before() == 0.001  # taken just now: reused
    host._last = (host._last[0] - 1.0, 0.001)  # a second ago: stale
    assert host.before() == 0.002


def test_sampling_every_core_returns_the_process_to_its_own():
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        pytest.skip("needs two cores")
    before = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cores[0]})
        assert HostSpeed(cores[:2], cores[0]).sample() > 0.0
        assert os.sched_getaffinity(0) == {cores[0]}
    finally:
        os.sched_setaffinity(0, before)


def test_timed_scales_a_block_by_the_host_readings_around_it(monkeypatch):
    readings = iter([2.0 * REFERENCE_CHUNK_S, 1.0 * REFERENCE_CHUNK_S])
    monkeypatch.setattr(hostspeed, "_chunk", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "_CHUNKS", 1)
    run = LifecycleRun(WORKLOADS["lifecycle_memory"], seed=1, seconds=1, tracer=None)

    async def block() -> str:
        return "done"

    assert asyncio.run(run.timed(block())) == ("done", pytest.approx(1.5))


def test_keep_awake_reaps_its_spinners():
    if not hasattr(os, "SCHED_IDLE"):
        pytest.skip("needs SCHED_IDLE")
    cores = sorted(os.sched_getaffinity(0))[:2]
    children = lambda: {  # noqa: E731
        int(pid) for pid in os.listdir("/proc") if pid.isdigit() and _parent(pid) == os.getpid()
    }
    already = children()
    with pytest.raises(RuntimeError):
        with keep_awake(cores):
            assert len(children() - already) == len(cores)
            raise RuntimeError("a failing run")
    assert children() == already


def _parent(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[1])
    except OSError:
        return -1
