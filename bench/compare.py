"""A/A and before/after comparer: ``python -m bench.compare A.json B.json``.

Reads two result files written by ``bench.run --out`` and applies to
every end-to-end metric, on every workload both files hold, that
metric's own bound and direction from ``BENCHMARK.json``: B may be worse
than A by at most the bound. Exits non-zero on any breach. Also prints,
for each file, how far ``pay_per_s`` on ``lifecycle_durable`` and
``lifecycle_memory`` disagree — both run the same pay code, so that
difference is the set's built-in noise reading.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative = better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[str]:
    """Print one row per metric and workload; return the breaches."""
    breaches = []
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            continue
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            x, y = before["metrics"][name]["value"], after["metrics"][name]["value"]
            worse = worsening(x, y, metric["better"])
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches.append(f"{workload}/{name}: worse by {worse:.1%}, bound {metric['bound']:.0%}")
            print(f"  {name:<26} {x:>12.4f} -> {y:>12.4f} {metric['unit']:<11} "
                  f"worse by {worse:>+7.1%} (bound {metric['bound']:.0%}) {verdict}")
        for label, side in (("A", before), ("B", after)):
            if side["failed"] or not side["correct"]:
                breaches.append(f"{workload}: set {label} has failed operations or checks")
    return breaches


def pay_disagreement(result: dict[str, Any]) -> float | None:
    """Relative ``pay_per_s`` gap between the durable and memory lifecycles."""
    try:
        durable = result["workloads"]["lifecycle_durable"]["metrics"]["pay_per_s"]["value"]
        memory = result["workloads"]["lifecycle_memory"]["metrics"]["pay_per_s"]["value"]
    except KeyError:
        return None
    return abs(durable - memory) / max(durable, memory)


def main(argv: list[str] | None = None) -> int:
    """CLI entry; returns the process exit code."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m bench.compare A.json B.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(path).read_text()) for path in args)
    breaches = compare(a, b, spec)
    for label, result in (("A", a), ("B", b)):
        gap = pay_disagreement(result)
        if gap is not None:
            print(f"within set {label}: pay_per_s durable vs memory differ by {gap:.1%}")
    for breach in breaches:
        print(f"BREACH {breach}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
