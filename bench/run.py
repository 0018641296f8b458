"""Run the benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in turn.
``--trace 0`` (the default) measures the end-to-end metrics with tracing
off; ``--trace 1`` repeats the workload with spans recorded around every
call the benchmark makes into a layer, adds the in-process layer ladder,
prints the per-layer metrics and the per-payment budget, and writes
``bench/out/trace.json``. Every metric is printed by name with its unit
and sample count; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``). The exit code is
non-zero when any operation failed or any output check did not hold.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

if __package__ in (None, ""):  # ``python3 bench/run.py``: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT
from bench.deploy import CORES, pin_load_generator
from bench.hostspeed import HostSpeed, keep_awake
from bench.tracing import Tracer
from bench.workloads import WORKLOADS, Report, run_workload

from repro.crypto import backend

OUT = ROOT / "bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict[str, Any]:
    """Where and on what this run was measured (recorded in every result file)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "backend": backend.name(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "git_sha": sha,
        "seed": seed,
    }


def contract_line(report: Report, names: list[str]) -> str:
    """The one-line JSON result: exactly the metrics ``BENCHMARK.json`` names."""
    metrics = {}
    for name in names:
        value, unit, _samples = report.metrics[name]
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        }
    )


def print_report(report: Report) -> None:
    """Every phase's counts and every metric by name, unit and sample count."""
    print(f"== {report.workload}  seed={report.seed}  seconds={report.seconds}  "
          f"wall={report.wall_s:.1f}s")
    for name, phase in report.phases.items():
        print(f"  phase {name:<22} attempted={phase.attempted:<6} failed={phase.failed}")
    share = report.failed / max(1, report.attempted)
    print(f"  failed_share = {share:.6f}")
    for name, (value, unit, samples) in report.metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit:<11} n={samples}")
    for note in report.notes:
        print(f"  note: {note}")
    for problem in report.problems:
        print(f"  CHECK FAILED: {problem}")


def run_one(
    name: str, seed: int, seconds: int, trace: bool, host: HostSpeed, smoke: bool = False
) -> Report:
    """One workload, traced or not; the traced run adds the layer ladder."""
    tracer = Tracer() if trace else None
    run = asyncio.run(run_workload(WORKLOADS[name], seed, seconds, OUT, tracer, host))
    if tracer is not None:
        from bench.layers import measure_layers
        from bench.traced import add_traced_metrics

        measure_layers(run.report, seed, OUT, smoke)
        add_traced_metrics(run, tracer)
        tracer.dump(OUT / "trace.json")
    return run.report


def main(argv: list[str] | None = None) -> int:
    """CLI entry; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the tests: one cycle, one deployment, 500-node overlay")
    parser.add_argument("--out", type=Path, help="write a result file for bench.compare")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 1
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    trace = bool(args.trace)
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]

    # The two cores the deployment is pinned to are kept awake and metered.
    cores = CORES[:2]
    host = HostSpeed(cores, pin_load_generator())
    result: dict[str, Any] = {"env": environment(args.seed), "workloads": {}}
    ok = True
    line = ""
    with keep_awake(cores):
        for name in names:
            report = run_one(name, args.seed, args.seconds, trace, host, args.smoke)
            print_report(report)
            ok = ok and report.correct
            line = contract_line(report, wanted)
            result["workloads"][name] = {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "wall_s": report.wall_s,
                "metrics": {
                    metric: {"value": value, "unit": unit, "samples": samples}
                    for metric, (value, unit, samples) in report.metrics.items()
                },
            }
    result["env"]["loadavg_after"] = os.getloadavg()
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2))
    print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
