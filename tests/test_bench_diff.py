"""Tests for the bench comparison tool (tools/bench_diff.py)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_diff.py"


def _bench_file(tmp_path, name, payment_speedup, deposit_speedup, backend="python"):
    data = {
        "full": {
            "group_bits": 1024,
            "backend": backend,
            "payment_verify": {
                "items": 16,
                "naive_ops_per_s": 10.0,
                "perf_ops_per_s": 10.0 * payment_speedup,
                "speedup": payment_speedup,
            },
            "deposit_bulk": {
                "items": 32,
                "naive_ops_per_s": 50.0,
                "perf_ops_per_s": 50.0 * deposit_speedup,
                "speedup": deposit_speedup,
            },
        }
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _run(*argv):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, argv)], capture_output=True, text=True
    )


def test_healthy_diff_exits_zero(tmp_path):
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    current = _bench_file(tmp_path, "cur.json", 3.8, 2.8)
    result = _run(baseline, current)
    assert result.returncode == 0, result.stderr
    assert "payment_verify" in result.stdout
    assert "deposit_bulk" in result.stdout
    assert "REGRESSION" not in result.stderr


def test_regression_is_flagged_and_exits_nonzero(tmp_path):
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    current = _bench_file(tmp_path, "cur.json", 4.0, 1.0)
    result = _run(baseline, current)
    assert result.returncode == 1
    assert "REGRESSION full: deposit_bulk" in result.stderr


def test_cross_backend_comparison_is_refused(tmp_path):
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0, backend="python")
    current = _bench_file(tmp_path, "cur.json", 4.0, 3.0, backend="gmpy2")
    result = _run(baseline, current)
    assert result.returncode == 2
    assert "not comparable across bigint backends" in result.stderr


def test_allow_backend_change_overrides_refusal(tmp_path):
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0, backend="python")
    current = _bench_file(tmp_path, "cur.json", 4.0, 3.0, backend="gmpy2")
    result = _run(baseline, current, "--allow-backend-change")
    assert result.returncode == 0, result.stderr
    assert "payment_verify" in result.stdout


def test_missing_backend_field_defaults_to_python(tmp_path):
    # Pre-backend-stamp baselines must stay comparable to python runs.
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    data = json.loads(baseline.read_text())
    del data["full"]["backend"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(data))
    current = _bench_file(tmp_path, "cur.json", 4.0, 3.0, backend="python")
    result = _run(legacy, current)
    assert result.returncode == 0, result.stderr


def test_disjoint_modes_exit_two(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"full": {}}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"quick": {}}))
    result = _run(a, b)
    assert result.returncode == 2


def test_section_missing_from_current_is_tolerated(tmp_path):
    # A baseline-only workload (e.g. recorded before a section was
    # retired) is reported but must not flag a regression.
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    data = json.loads(baseline.read_text())
    data["full"]["withdrawal"] = {"items": 8, "speedup": 6.0}
    grown = tmp_path / "grown.json"
    grown.write_text(json.dumps(data))
    current = _bench_file(tmp_path, "cur.json", 4.0, 3.0)
    result = _run(grown, current)
    assert result.returncode == 0, result.stderr
    assert "baseline only" in result.stdout
    assert "REGRESSION" not in result.stderr


def test_section_new_in_current_is_tolerated(tmp_path):
    # The symmetric case: a current-only section (a freshly added
    # campaign/bench workload) diffs cleanly against an old baseline.
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    current = _bench_file(tmp_path, "cur.json", 4.0, 3.0)
    data = json.loads(current.read_text())
    data["full"]["witness_sig_batch"] = {"items": 64, "speedup": 7.9}
    grown = tmp_path / "grown.json"
    grown.write_text(json.dumps(data))
    result = _run(baseline, grown)
    assert result.returncode == 0, result.stderr
    assert "(new, 7.90x)" in result.stdout


def test_section_filter_limits_comparison(tmp_path):
    # With --section payment_verify the regressed deposit row is
    # excluded from the comparison entirely.
    baseline = _bench_file(tmp_path, "base.json", 4.0, 3.0)
    current = _bench_file(tmp_path, "cur.json", 4.0, 0.5)
    flagged = _run(baseline, current)
    assert flagged.returncode == 1
    filtered = _run(baseline, current, "--section", "payment_verify")
    assert filtered.returncode == 0, filtered.stderr
    assert "payment_verify" in filtered.stdout
    assert "deposit_bulk" not in filtered.stdout
