"""The perf engine's telemetry: hit/miss counters, gauges, histogram."""

from __future__ import annotations

import pytest

from repro import obs, perf
from repro.core.params import test_params as make_test_params
from repro.perf import fixed_base


@pytest.fixture(autouse=True)
def live_obs():
    """Fresh, enabled telemetry for every test in this module."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()


def test_verify_cache_hit_and_miss_counters():
    perf.verify_memo("obs-test", ("k",), lambda: True)
    perf.verify_memo("obs-test", ("k",), lambda: True)
    perf.verify_memo("obs-test", ("k",), lambda: True)
    registry = obs.registry()
    assert registry.counter_value("perf_verify_cache_misses_total", cache="obs-test") == 1
    assert registry.counter_value("perf_verify_cache_hits_total", cache="obs-test") == 2


@pytest.mark.usefixtures("python_backend")
def test_fixed_base_hit_counter_counts_table_lookups():
    group = make_test_params().group
    fixed_base.register(group.g, group.p, group.q)
    for _ in range(fixed_base.BUILD_THRESHOLD - 1):
        fixed_base.fpow(group.g, 5, group.p, group.q)
    registry = obs.registry()
    # Candidate uses are not hits; the build-and-serve call and every
    # table-backed call after it are.
    assert registry.counter_value("perf_fixed_base_hits_total") == 0
    fixed_base.fpow(group.g, 5, group.p, group.q)
    fixed_base.fpow(group.g, 6, group.p, group.q)
    assert registry.counter_value("perf_fixed_base_hits_total") == 2


def test_export_metrics_publishes_cache_size_gauges():
    perf.verify_memo("obs-gauge", ("a",), lambda: 1)
    perf.verify_memo("obs-gauge", ("b",), lambda: 2)
    perf.export_metrics()
    gauges = obs.registry().snapshot()["gauges"]
    assert gauges["perf_cache_size{cache=obs-gauge}"] == 2
    assert "perf_cache_size{cache=fixed-base-tables}" in gauges


def test_deposit_batch_size_histogram(system):
    system.broker.deposit_batch("alice-books", [], now=0)
    histograms = obs.registry().snapshot()["histograms"]
    assert histograms["perf_batch_deposit_size"]["count"] == 1
    assert histograms["perf_batch_deposit_size"]["max"] == 0.0
