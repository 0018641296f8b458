"""The whole benchmark at smoke size: every named metric is printed and sane."""

import json
import math
import re
import subprocess
import sys

import pytest

from bench import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
ROW = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[+-]?\d+)?) (\S+)\s+n=(\d+)$", re.MULTILINE)


def smoke(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "11", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def check(done: subprocess.CompletedProcess, wanted: list[dict]) -> None:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    printed = {name: (float(value), unit) for name, value, unit, _n in ROW.findall(done.stdout)}
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        name = metric["name"]
        assert NAME.match(name)
        assert name in printed, f"{name} is not printed"
        value, unit = printed[name]
        assert unit == metric["unit"] == last["metrics"][name]["unit"]
        assert math.isfinite(value) and math.isfinite(last["metrics"][name]["value"])
    assert "failed_share = 0.000000" in done.stdout
    assert "CHECK FAILED" not in done.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    check(smoke("--workload", workload, "--trace", "0"), SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric_and_writes_the_trace():
    done = smoke("--workload", "lifecycle_durable", "--trace", "1")
    check(done, SPEC["per_layer"])
    assert "per-payment budget" in done.stdout and "tracing overhead" in done.stdout
    spans = json.loads((ROOT / "bench" / "out" / "trace.json").read_text())
    names = {span["name"] for span in spans}
    assert {"withdraw", "pay", "pay_open", "refuse", "client.compute", "rpc.pay"} <= names
    assert all(span["end"] >= span["start"] for span in spans)
    assert all(span["trace"] for span in spans if span["name"].startswith("rpc."))
