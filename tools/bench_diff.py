#!/usr/bin/env python3
"""Compare two BENCH_payment.json files and print per-workload deltas.

Walks every mode (``full``/``quick``) present in both files, compares the
naive-vs-perf speedup of each section, and prints one line per workload
with the relative change. Workloads whose speedup dropped by more than
``--tolerance`` (default 30%) are flagged as regressions and make the
script exit non-zero, which is how CI turns a bench run into a pass/fail
signal.

Workloads present in only one file are reported but never treated as
regressions: results files grow new sections over time (``campaign``,
``witness_sig_batch``, ...), and a diff against a pre-section baseline
must stay meaningful in both directions. Use ``--section`` (repeatable)
to restrict the comparison to named sections, e.g.
``--section payment_verify --section deposit_bulk``.

Modes recorded under different bigint backends (``backend`` field:
``python`` vs ``gmpy2``) are refused outright unless
``--allow-backend-change`` is passed — naive-vs-perf ratios shift when
the underlying arithmetic gets 10-30x faster, so such a diff measures
the backend swap, not the code change.

Run:  python tools/bench_diff.py BASELINE.json CURRENT.json [--tolerance 0.3]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator


def _speedup_rows(results: dict[str, Any]) -> Iterator[tuple[str, float]]:
    """Yield ``(workload_name, speedup)`` for every comparable workload."""
    for section in sorted(results):
        values = results[section]
        if isinstance(values, dict) and isinstance(values.get("speedup"), (int, float)):
            yield section, float(values["speedup"])


def diff_modes(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float,
    sections: list[str] | None = None,
) -> tuple[list[str], list[str]]:
    """Compare one mode's results; return (report lines, regression lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    base_rows = dict(_speedup_rows(baseline))
    cur_rows = dict(_speedup_rows(current))
    if sections:
        base_rows = {k: v for k, v in base_rows.items() if k in sections}
        cur_rows = {k: v for k, v in cur_rows.items() if k in sections}
    for name, base_speedup in base_rows.items():
        cur_speedup = cur_rows.get(name)
        if cur_speedup is None:
            lines.append(f"  {name:<40} (baseline only, {base_speedup:.2f}x)")
            continue
        change = cur_speedup / base_speedup - 1.0 if base_speedup else 0.0
        marker = ""
        if change < -tolerance:
            marker = "  << REGRESSION"
            regressions.append(
                f"{name}: speedup {cur_speedup:.2f}x is {-change:.0%} below "
                f"baseline {base_speedup:.2f}x (tolerance {tolerance:.0%})"
            )
        lines.append(
            f"  {name:<40} {base_speedup:>8.2f}x -> {cur_speedup:>8.2f}x "
            f"({change:+.1%}){marker}"
        )
    for name in cur_rows:
        if name not in base_rows:
            lines.append(f"  {name:<40} (new, {cur_rows[name]:.2f}x)")
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="baseline BENCH json")
    parser.add_argument("current", type=Path, help="current BENCH json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="max tolerated relative speedup drop (default 0.3 = 30%%)",
    )
    parser.add_argument(
        "--section",
        action="append",
        metavar="NAME",
        help="only compare this section (repeatable)",
    )
    parser.add_argument(
        "--allow-backend-change",
        action="store_true",
        help="compare modes even when baseline and current were recorded "
        "under different bigint backends (python vs gmpy2)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    all_regressions: list[str] = []
    shared_modes = [mode for mode in baseline if mode in current]
    if not shared_modes:
        print("no common modes between the two files", file=sys.stderr)
        return 2
    if not args.allow_backend_change:
        for mode in shared_modes:
            base_backend = baseline[mode].get("backend", "python")
            cur_backend = current[mode].get("backend", "python")
            if base_backend != cur_backend:
                print(
                    f"{mode}: baseline backend {base_backend!r} != current "
                    f"backend {cur_backend!r}; speedup ratios are not "
                    "comparable across bigint backends "
                    "(pass --allow-backend-change to override)",
                    file=sys.stderr,
                )
                return 2
    for mode in shared_modes:
        print(f"[{mode}]")
        lines, regressions = diff_modes(
            baseline[mode], current[mode], args.tolerance, sections=args.section
        )
        print("\n".join(lines) if lines else "  (nothing comparable)")
        all_regressions.extend(f"{mode}: {entry}" for entry in regressions)
    if all_regressions:
        print()
        for entry in all_regressions:
            print(f"REGRESSION {entry}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
