"""Baseline semantics plus the checked-in-file freshness guarantee."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.baseline import (
    Baseline,
    BaselineError,
    BaselineFile,
    diff_against_baseline,
)
from repro.lint.engine import LintEngine
from repro.lint.findings import Finding

ROOT = Path(__file__).resolve().parent.parent.parent


def _finding(path: str = "src/mod.py", line: int = 3, snippet: str = "x = pow(a, b, p)") -> Finding:
    return Finding(
        path=path, line=line, col=1, rule="mod-arith", message="m", snippet=snippet
    )


def test_round_trip(tmp_path: Path) -> None:
    stored = BaselineFile(
        files=Baseline.from_findings([_finding(), _finding(line=9)]),
        program=Baseline.from_findings(
            [_finding(path="src/wire.py", snippet="out['x'] = 1")]
        ),
    )
    file = tmp_path / "baseline.json"
    stored.save(file)
    loaded = BaselineFile.load(file)
    assert loaded.files.counts == stored.files.counts
    assert loaded.files.context == stored.files.context
    assert loaded.program.counts == stored.program.counts
    assert loaded.program.context == stored.program.context


def test_round_trip_is_schema_v2(tmp_path: Path) -> None:
    file = tmp_path / "baseline.json"
    BaselineFile().save(file)
    data = json.loads(file.read_text())
    assert data["version"] == 2
    assert data["findings"] == [] and data["program_findings"] == []


def test_missing_file_loads_empty(tmp_path: Path) -> None:
    stored = BaselineFile.load(tmp_path / "absent.json")
    assert not stored.files.counts and not stored.program.counts


def test_v1_file_is_rejected_with_regeneration_hint(tmp_path: Path) -> None:
    file = tmp_path / "baseline.json"
    file.write_text(json.dumps({"version": 1, "findings": []}))
    with pytest.raises(BaselineError, match="write-baseline"):
        BaselineFile.load(file)


def test_corrupt_file_is_rejected(tmp_path: Path) -> None:
    file = tmp_path / "baseline.json"
    file.write_text("{not json")
    with pytest.raises(BaselineError, match="not valid JSON"):
        BaselineFile.load(file)


def test_baselined_findings_are_suppressed() -> None:
    finding = _finding()
    baseline = Baseline.from_findings([finding])
    new, stale = diff_against_baseline([finding], baseline)
    assert new == [] and stale == []


def test_new_finding_fails() -> None:
    baseline = Baseline.from_findings([_finding()])
    fresh = _finding(snippet="y = pow(c, d, p)")
    new, stale = diff_against_baseline([_finding(), fresh], baseline)
    assert new == [fresh] and stale == []


def test_stale_entry_fails() -> None:
    gone = _finding()
    baseline = Baseline.from_findings([gone])
    new, stale = diff_against_baseline([], baseline)
    assert new == [] and stale == [gone.fingerprint()]
    assert "mod-arith" in baseline.describe(gone.fingerprint())


def test_counts_matter_per_fingerprint() -> None:
    """Baselining one occurrence does not excuse a second identical one."""
    first = _finding(line=3)
    second = _finding(line=30)  # same snippet => same fingerprint
    assert first.fingerprint() == second.fingerprint()
    baseline = Baseline.from_findings([first])
    new, stale = diff_against_baseline([first, second], baseline)
    assert new == [second] and stale == []


def test_checked_in_baseline_matches_fresh_run_over_src() -> None:
    """The repo invariant: LINT_baseline.json is exactly a fresh run.

    No new findings and no stale suppressions (every baselined finding
    still exists).
    """
    engine = LintEngine(root=ROOT)
    findings = engine.lint([ROOT / "src"])
    stored = BaselineFile.load(ROOT / "LINT_baseline.json")
    new, stale = diff_against_baseline(findings, stored.files)
    assert new == [], f"non-baselined findings in src/: {[f.location() for f in new]}"
    assert stale == [], f"stale baseline entries: {stale}"
    # Both tiers run clean on the real tree: nothing is grandfathered,
    # and a finding that reappears must be fixed, not baselined.
    assert findings == []
    assert stored.files.counts == {}
    assert stored.program.counts == {}
