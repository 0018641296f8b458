"""Console and JSON report rendering plus the CI exit-code contract.

Exit codes: 0 clean, 1 findings, 2 usage errors. Every reported line
names ``rule`` and ``file:line`` so a CI log is directly actionable.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.lint.findings import Finding


def render_console(findings: list[Finding], checked_files: int = 0) -> str:
    """Human-readable report: one block per finding, then a summary."""
    lines: list[str] = []
    for finding in findings:
        lines.append(
            f"{finding.location()}: {finding.rule} {finding.severity}: "
            f"{finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    by_rule = Counter(finding.rule for finding in findings)
    summary = ", ".join(f"{rule}={count}" for rule, count in sorted(by_rule.items()))
    if findings:
        lines.append(
            f"{len(findings)} finding(s) [{summary}] across {checked_files} file(s)"
        )
    else:
        lines.append(f"clean: 0 findings across {checked_files} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding], checked_files: int = 0) -> str:
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
        "summary": dict(
            sorted(Counter(finding.rule for finding in findings).items())
        ),
        "ok": not findings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def exit_code(findings: list[Finding]) -> int:
    """The process exit code for a lint run."""
    return 1 if findings else 0
