"""Console and JSON report rendering plus the CI exit-code contract.

Exit codes: 0 clean, 1 findings (or stale baseline entries), 2 usage
errors. Every reported line names ``rule`` and ``file:line`` so a CI log
is directly actionable.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.lint.baseline import Baseline
from repro.lint.findings import Finding


def render_console(
    findings: list[Finding],
    stale: list[str] | None = None,
    baseline: Baseline | None = None,
    checked_files: int = 0,
) -> str:
    """Human-readable report: one block per finding, then a summary."""
    lines: list[str] = []
    for finding in findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.severity}: "
            f"{finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if stale:
        for fingerprint in stale:
            described = baseline.describe(fingerprint) if baseline else fingerprint
            lines.append(
                f"stale baseline entry {fingerprint}: {described} "
                "(fixed findings must leave the baseline: rerun with "
                "--write-baseline)"
            )
    by_rule = Counter(finding.rule for finding in findings)
    summary = ", ".join(f"{rule}={count}" for rule, count in sorted(by_rule.items()))
    total = len(findings) + len(stale or [])
    if total:
        lines.append(
            f"{len(findings)} finding(s)"
            + (f" [{summary}]" if summary else "")
            + (f", {len(stale)} stale baseline entr(ies)" if stale else "")
            + f" across {checked_files} file(s)"
        )
    else:
        lines.append(f"clean: 0 findings across {checked_files} file(s)")
    return "\n".join(lines)


def render_json(
    findings: list[Finding],
    stale: list[str] | None = None,
    baseline: Baseline | None = None,
    checked_files: int = 0,
) -> str:
    """Machine-readable report (stable key order) for CI artifacts."""
    payload = {
        "checked_files": checked_files,
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "severity": str(finding.severity),
                "message": finding.message,
                "snippet": finding.snippet,
                "fingerprint": finding.fingerprint(),
            }
            for finding in findings
        ],
        "stale_baseline": [
            {
                "fingerprint": fingerprint,
                "entry": baseline.describe(fingerprint) if baseline else "",
            }
            for fingerprint in (stale or [])
        ],
        "summary": dict(
            sorted(Counter(finding.rule for finding in findings).items())
        ),
        "ok": not findings and not stale,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def exit_code(findings: list[Finding], stale: list[str] | None = None) -> int:
    """The process exit code for a lint run."""
    return 1 if findings or stale else 0
