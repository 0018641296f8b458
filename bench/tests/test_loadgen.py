"""The load generator's arithmetic: due-time latency, lateness, failure counts."""

import asyncio
import time

import pytest

from bench.loadgen import PhaseResult, closed_loop, midmean, open_loop, percentile, supports


def test_open_loop_charges_latency_from_the_due_time_and_reports_lateness():
    """A 200 ms stall makes the next request late; its latency starts when it was due."""

    async def stall() -> None:
        time.sleep(0.2)  # blocks the loop: the generator cannot fire what is due

    async def instant() -> None:
        return None

    schedule = [0.0, 0.01, 0.45]
    result = asyncio.run(open_loop(schedule, [stall, instant, instant]))
    assert result.attempted == 3 and result.failed == 0
    # Due at 10 ms, fired only once the stall ended at ~200 ms.
    assert result.lateness_ms[1] >= 150.0
    # The instant request still took >= 150 ms as its shopper saw it.
    by_latency = sorted(result.latencies_ms)
    assert by_latency[1] >= 150.0
    # Well after the stall the generator is back on schedule.
    assert result.lateness_ms[2] < 50.0
    assert by_latency[0] < 50.0
    # Wall time runs from the first due time to the last completion.
    assert 0.45 <= result.wall_s < 1.0


def test_open_loop_counts_a_failed_request_and_gives_it_no_latency():
    async def ok() -> None:
        return None

    async def refused() -> None:
        raise RuntimeError("refused")

    result = asyncio.run(open_loop([0.0, 0.001], [ok, refused]))
    assert (result.attempted, result.failed) == (2, 1)
    assert len(result.latencies_ms) == 1
    assert result.errors == ["RuntimeError: refused"]


def test_closed_loop_runs_lanes_concurrently_and_each_lane_in_order():
    order: list[str] = []

    def op(tag: str):
        async def run() -> None:
            await asyncio.sleep(0.01)
            order.append(tag)

        return run

    result = asyncio.run(closed_loop([[op("a1"), op("a2")], [op("b1"), op("b2")]]))
    assert result.attempted == 4 and result.failed == 0
    assert order.index("a1") < order.index("a2") and order.index("b1") < order.index("b2")
    assert result.wall_s < 0.035  # two lanes of 2 x 10 ms overlap


def test_absorb_keeps_clocked_timings_and_adds_them_at_reference_speed():
    """A block the host stretched by 1.25 counts for 1/1.25 of its clocked time."""
    total = PhaseResult()
    total.absorb(PhaseResult(attempted=100, wall_s=1.0, latencies_ms=[10.0]), 1.25)
    total.absorb(PhaseResult(attempted=100, failed=1, wall_s=2.97, latencies_ms=[30.0]), 0.75)
    total.absorb(PhaseResult(attempted=100, wall_s=1.0, latencies_ms=[5.0]))
    assert (total.attempted, total.failed) == (300, 1)
    assert total.wall_s == pytest.approx(4.97)
    assert total.latencies_ms == [10.0, 30.0, 5.0]
    assert total.corrected_ms == pytest.approx([8.0, 40.0, 5.0])
    assert total.op_s == pytest.approx([0.01, 0.03, 0.01])
    assert total.corrected_op_s == pytest.approx([0.008, 0.04, 0.01])


def test_block_rates_are_the_midmean_so_a_stalled_block_does_not_drag_them():
    assert midmean([5.0]) == 5.0
    assert midmean([1.0, 2.0, 3.0, 100.0]) == 2.5  # outer quarter on each side dropped
    total = PhaseResult()
    for wall in (1.0, 1.1, 0.9, 1.0, 1.0, 1.0, 0.95, 9.0):  # one block sat through a stall
        total.absorb(PhaseResult(attempted=100, wall_s=wall), 2.0)
    assert total.block_per_s == pytest.approx(100.0)
    assert total.corrected_per_s == pytest.approx(200.0)
    assert 800 / total.wall_s == pytest.approx(50.2, abs=0.1)  # what the stall does to total / total
    assert PhaseResult().corrected_per_s == 0.0


def test_percentile_is_nearest_rank_and_support_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([7.0], 0.99) == 7.0
    assert supports(values, 0.9) and not supports(values, 0.99)
    assert supports(list(range(1000)), 0.99)
