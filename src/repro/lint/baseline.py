"""The grandfather file: known findings that do not fail the build.

The baseline maps finding fingerprints (rule + path + offending source
text, deliberately excluding the line number so unrelated edits do not
churn it) to occurrence counts. A fresh run is compared group-wise:

* fingerprints with more occurrences than baselined are **new**
  findings and fail the build;
* baselined fingerprints with fewer (or zero) occurrences are **stale**
  suppressions and also fail — a fixed finding must leave the baseline
  in the same commit, so the file never accretes dead entries.

Schema v2 keeps the two analysis tiers in separate namespaces:
``"findings"`` holds per-file rule entries and ``"program_findings"``
holds whole-program entries. They must never mix — the tiers run
separately, so diffing them against one shared pool would let a
per-file entry mask a program regression.
:meth:`BaselineFile.load` rejects v1 files outright with a regeneration
hint rather than guessing which tier the old entries belonged to.

Regenerate with ``python -m repro lint src --write-baseline`` after
deliberately accepting or fixing findings (this rewrites both sections).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.lint.findings import Finding

#: Default checked-in location, repo-root relative.
DEFAULT_BASELINE = "LINT_baseline.json"

#: The only schema this loader accepts.
BASELINE_VERSION = 2


class BaselineError(ValueError):
    """A baseline file exists but cannot be used (wrong schema/corrupt)."""


@dataclass
class Baseline:
    """Fingerprint -> (count, human-readable context) of accepted findings.

    One instance holds one namespace (per-file or program); the on-disk
    container pairing the two is :class:`BaselineFile`.
    """

    counts: Counter[str] = field(default_factory=Counter)
    context: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def from_findings(cls, findings: list[Finding]) -> "Baseline":
        """Accept every given finding."""
        baseline = cls()
        for finding in findings:
            fingerprint = finding.fingerprint()
            baseline.counts[fingerprint] += 1
            baseline.context.setdefault(
                fingerprint,
                {
                    "rule": finding.rule,
                    "path": finding.path,
                    "snippet": finding.snippet,
                },
            )
        return baseline

    def entries(self) -> list[dict[str, Any]]:
        """Sorted JSON-ready entries, one per fingerprint."""
        return [
            {
                "fingerprint": fingerprint,
                "count": self.counts[fingerprint],
                **self.context.get(fingerprint, {}),
            }
            for fingerprint in sorted(self.counts)
        ]

    @classmethod
    def from_entries(cls, entries: list[Any]) -> "Baseline":
        """Rebuild one namespace from its JSON entry list."""
        baseline = cls()
        for entry in entries:
            fingerprint = str(entry["fingerprint"])
            baseline.counts[fingerprint] = int(entry.get("count", 1))
            baseline.context[fingerprint] = {
                "rule": str(entry.get("rule", "")),
                "path": str(entry.get("path", "")),
                "snippet": str(entry.get("snippet", "")),
            }
        return baseline

    def describe(self, fingerprint: str) -> str:
        """Human-readable ``rule path: snippet`` for a stale entry."""
        entry = self.context.get(fingerprint, {})
        rule = entry.get("rule", "?")
        path = entry.get("path", "?")
        snippet = entry.get("snippet", "")
        return f"{rule} {path}: {snippet}" if snippet else f"{rule} {path}"


@dataclass
class BaselineFile:
    """The on-disk baseline: per-file and program namespaces, schema v2."""

    files: Baseline = field(default_factory=Baseline)
    program: Baseline = field(default_factory=Baseline)

    @classmethod
    def load(cls, path: str | Path) -> "BaselineFile":
        """Read a baseline file (empty if absent; BaselineError on v1)."""
        file = Path(path)
        if not file.exists():
            return cls()
        try:
            data = json.loads(file.read_text())
        except json.JSONDecodeError as error:
            raise BaselineError(f"{path}: not valid JSON ({error})") from error
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise BaselineError(
                f"{path}: baseline schema v{version!r} is not supported "
                f"(expected v{BASELINE_VERSION}, which separates per-file "
                "and program-rule entries); regenerate it with "
                "'python -m repro lint src --write-baseline'"
            )
        return cls(
            files=Baseline.from_entries(data.get("findings", [])),
            program=Baseline.from_entries(data.get("program_findings", [])),
        )

    def save(self, path: str | Path) -> None:
        """Write the v2 baseline file (both namespaces, sorted)."""
        payload = {
            "version": BASELINE_VERSION,
            "findings": self.files.entries(),
            "program_findings": self.program.entries(),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def diff_against_baseline(
    findings: list[Finding], baseline: Baseline
) -> tuple[list[Finding], list[str]]:
    """Split a fresh run into (new findings, stale baseline fingerprints).

    Occurrence counts matter: two identical offending lines in one file
    share a fingerprint, and baselining one does not excuse the second.
    New findings within a group are attributed to the *last* source
    occurrences (the earlier ones are the grandfathered ones).
    """
    groups: dict[str, list[Finding]] = {}
    for finding in sorted(findings):
        groups.setdefault(finding.fingerprint(), []).append(finding)
    new: list[Finding] = []
    for fingerprint, members in groups.items():
        allowed = baseline.counts.get(fingerprint, 0)
        if len(members) > allowed:
            new.extend(members[allowed:])
    stale = [
        fingerprint
        for fingerprint, count in sorted(baseline.counts.items())
        if len(groups.get(fingerprint, [])) < count
    ]
    return sorted(new), stale
