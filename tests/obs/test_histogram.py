"""Tests for the streaming histogram: exact short streams, P² long ones.

Below :data:`EXACT_LIMIT` samples every tracked quantile is the nearest
rank of the sorted samples; above it the P² estimates must equal, float
for float, those of the estimator the campaign ran before the histogram
absorbed it (``tests/reference/p2_quantile.py``).
"""

from __future__ import annotations

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.histogram import EXACT_LIMIT, QUANTILES, StreamingHistogram
from tests.reference.p2_quantile import P2Quantile

samples = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def fed(values) -> StreamingHistogram:
    histogram = StreamingHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


def nearest_rank(values: list[float], q: float) -> float:
    """``sorted(values)[ceil(q·n) − 1]``, with ``q`` taken as the decimal it is written as."""
    return sorted(values)[math.ceil(Fraction(str(q)) * len(values)) - 1]


@given(st.lists(samples, min_size=1, max_size=EXACT_LIMIT))
def test_short_streams_are_exact_by_nearest_rank(values):
    histogram = fed(values)
    for q in QUANTILES:
        assert histogram.quantile(q) == nearest_rank(values, q)


@given(st.lists(samples, min_size=EXACT_LIMIT + 1, max_size=3 * EXACT_LIMIT))
def test_long_streams_match_the_reference_p2(values):
    histogram = fed(values)
    for q in QUANTILES:
        reference = P2Quantile(q)
        for value in values:
            reference.add(value)
        assert histogram.quantile(q) == reference.value()


def test_empty_summary():
    digest = StreamingHistogram().summary()
    assert digest == {"count": 0, "sum": 0.0}
    assert all(StreamingHistogram().quantile(q) == 0.0 for q in QUANTILES)


def test_exact_count_sum_min_max():
    histogram = fed((3.0, 1.0, 4.0, 1.5))
    digest = histogram.summary()
    assert digest["count"] == 4
    assert digest["sum"] == pytest.approx(9.5)
    assert digest["min"] == 1.0
    assert digest["max"] == 4.0
    assert histogram.mean == pytest.approx(9.5 / 4)


def test_summary_matches_exact_on_small_stream():
    digest = fed([4.0, 1.0, 3.0, 2.0]).summary()
    assert digest == {"count": 4, "sum": 10.0, "mean": 2.5, "min": 1.0, "max": 4.0,
                      "p50": 2.0, "p90": 4.0, "p95": 4.0, "p99": 4.0}


def test_exact_below_five_samples():
    assert fed((5.0, 1.0, 3.0)).quantile(0.5) == 3.0


def test_quantile_nearest_rank():
    histogram = fed(float(value) for value in range(100))
    assert [histogram.quantile(q) for q in QUANTILES] == [49.0, 89.0, 94.0, 98.0]


def test_samples_never_exceed_the_exact_limit():
    histogram = StreamingHistogram()
    for value in range(EXACT_LIMIT):
        histogram.observe(value)
        assert len(histogram._samples) == value + 1
    histogram.observe(EXACT_LIMIT)
    assert histogram._samples is None


def test_concurrent_observers_lose_no_sample():
    """Four threads cross the exact limit together; P² absorbs every sample once."""
    histogram = StreamingHistogram()

    def observe_many():
        for value in range(500):
            histogram.observe(value)

    threads = [threading.Thread(target=observe_many) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert histogram.count == 2000
    assert all(marker._positions[4] == 2000.0 for marker in histogram._markers)


def test_constant_memory():
    """After 100k samples the histogram holds five markers per quantile and no samples."""
    histogram = fed(value % 997 for value in range(100_000))
    assert histogram.count == 100_000
    assert histogram._samples is None
    assert all(len(marker._heights) == 5 for marker in histogram._markers)


def test_summary_deterministic_across_instances():
    def build():
        rng = random.Random(77)
        return fed(rng.expovariate(0.5) for _ in range(5000)).summary()

    assert build() == build()


def test_quantiles_clamped_to_observed_range():
    single = fed([42.0])
    assert all(single.quantile(q) == 42.0 for q in QUANTILES)
    rng = random.Random(3)
    long = fed(rng.lognormvariate(0.0, 2.0) for _ in range(2000))
    assert all(long.minimum <= long.quantile(q) <= long.maximum for q in QUANTILES)


def test_shuffled_input_gives_same_quantiles():
    values = [float(value) for value in range(1, EXACT_LIMIT + 1)]
    shuffled = list(values)
    random.Random(7).shuffle(shuffled)
    assert fed(values).summary() == fed(shuffled).summary()


def test_zero_and_negative_samples():
    histogram = fed((0.0, -5.0))
    digest = histogram.summary()
    assert digest["count"] == 2
    assert digest["min"] == -5.0
    assert digest["max"] == 0.0
    assert digest["p50"] == -5.0 and digest["p99"] == 0.0


def test_summary_carries_requested_quantiles():
    digest = fed(float(value) + 1 for value in range(1000)).summary()
    assert set(digest) == {"count", "sum", "mean", "min", "max", "p50", "p90", "p95", "p99"}
    assert digest["p50"] <= digest["p90"] <= digest["p95"] <= digest["p99"]


def test_long_stream_quantiles_within_ten_percent():
    histogram = fed(float(value) for value in range(1, 1001))
    for q in QUANTILES:
        assert histogram.quantile(q) == pytest.approx(1000 * q, rel=0.10)


def test_median_of_uniform_stream():
    rng = random.Random(13)
    histogram = fed(rng.random() for _ in range(20_000))
    assert abs(histogram.quantile(0.5) - 0.5) < 0.02


@pytest.mark.parametrize("target", [0.9, 0.95, 0.99])
def test_tail_quantiles_of_uniform_stream(target):
    rng = random.Random(29)
    histogram = fed(rng.random() for _ in range(20_000))
    assert abs(histogram.quantile(target) - target) < 0.02


def test_exponential_stream_tracks_exact():
    """P² stays close to the exact empirical quantile on skewed data."""
    rng = random.Random(5)
    values = [rng.expovariate(1.0) for _ in range(10_000)]
    exact = nearest_rank(values, 0.9)
    assert abs(fed(values).quantile(0.9) - exact) / exact < 0.1


def test_invalid_quantile_rejected():
    histogram = fed([1.0])
    for q in (0.0, 1.0, 0.42, 1.5):
        with pytest.raises(ValueError):
            histogram.quantile(q)
