"""The bench harness: result shape, baseline writing, regression check."""

from __future__ import annotations

import json

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def results(params):
    return bench.run_bench(params=params, seed=11, sizes=(1, 2, 2))


def test_run_bench_result_shape(results, params):
    assert results["group_bits"] == params.group.p.bit_length()
    for section in ("payment_verify", "withdrawal", "deposit_bulk"):
        values = results[section]
        assert values["items"] > 0
        assert values["naive_ops_per_s"] > 0
        assert values["perf_ops_per_s"] > 0
        assert values["speedup"] == pytest.approx(
            values["perf_ops_per_s"] / values["naive_ops_per_s"], rel=0.02
        )


def test_write_results_merges_modes(tmp_path, results):
    target = tmp_path / "bench.json"
    bench.write_results(results, target, mode="full")
    bench.write_results({"group_bits": 512}, target, mode="quick")
    stored = json.loads(target.read_text())
    assert stored["full"] == results
    assert stored["quick"] == {"group_bits": 512}


def test_check_regression():
    baseline = {
        "group_bits": 512,
        "payment_verify": {"speedup": 4.0},
        "deposit_bulk": {"speedup": 3.0},
    }
    healthy = {
        "payment_verify": {"speedup": 3.9},
        "deposit_bulk": {"speedup": 2.5},
    }
    assert bench.check_regression(healthy, baseline, tolerance=0.7) == []
    regressed = {
        "payment_verify": {"speedup": 1.0},
        "deposit_bulk": {"speedup": 2.5},
    }
    failures = bench.check_regression(regressed, baseline, tolerance=0.7)
    assert len(failures) == 1
    assert failures[0].startswith("payment_verify")
    failures = bench.check_regression({}, baseline, tolerance=0.7)
    assert sorted(f.split(":")[0] for f in failures) == ["deposit_bulk", "payment_verify"]
