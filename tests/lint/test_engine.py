"""Engine mechanics: discovery, scoping, parse errors, rule selection."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import RuleConfig, default_config
from repro.lint.engine import LintEngine, iter_python_files, lint_paths
from repro.lint.findings import Finding, Severity
from repro.lint.rules import all_rules, get_rule

ROOT = Path(__file__).resolve().parent.parent.parent


def test_iter_python_files_skips_pycache(tmp_path: Path) -> None:
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    files = list(iter_python_files([tmp_path]))
    assert [file.name for file in files] == ["a.py"]


def test_iter_python_files_dedupes_overlapping_paths(tmp_path: Path) -> None:
    file = tmp_path / "a.py"
    file.write_text("x = 1\n")
    files = list(iter_python_files([tmp_path, file, file]))
    assert len(files) == 1


def test_parse_error_becomes_a_finding(tmp_path: Path) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = LintEngine(root=tmp_path).lint([bad])
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"
    assert findings[0].severity is Severity.ERROR


def test_rule_subset_selection(tmp_path: Path) -> None:
    file = tmp_path / "core" / "mod.py"
    file.parent.mkdir()
    file.write_text(
        "import time\n\n"
        "def f(g, x, p):\n"
        "    started = time.time()\n"
        "    return pow(g, x, p), started\n"
    )
    engine = LintEngine(root=tmp_path)
    every = engine.lint([file])
    assert {finding.rule for finding in every} == {"determinism", "mod-arith"}
    only = engine.lint([file], only=["determinism"])
    assert {finding.rule for finding in only} == {"determinism"}
    with pytest.raises(KeyError):
        engine.select_rules(["no-such-rule"])


def test_disabled_rule_is_skipped(tmp_path: Path) -> None:
    file = tmp_path / "mod.py"
    file.write_text("import time\n\nnow = time.time()\n")
    config = default_config()
    config.rules["determinism"] = RuleConfig(enabled=False)
    assert lint_paths([file], config=config, root=tmp_path) == []


def test_severity_override_applies(tmp_path: Path) -> None:
    file = tmp_path / "mod.py"
    file.write_text("import time\n\nnow = time.time()\n")
    config = default_config()
    config.rules["determinism"] = RuleConfig(severity=Severity.WARNING)
    findings = lint_paths([file], config=config, root=tmp_path)
    assert [finding.severity for finding in findings] == [Severity.WARNING]


def test_registry_has_the_six_shipped_rules() -> None:
    assert set(all_rules()) == {
        "secret-flow",
        "rng-discipline",
        "mod-arith",
        "ct-compare",
        "determinism",
        "broad-except",
    }
    assert get_rule("ct-compare").description


def test_findings_sorted_and_deduped(tmp_path: Path) -> None:
    file = tmp_path / "mod.py"
    file.write_text(
        "import time\n\n"
        "def late():\n    return time.time()\n\n"
        "def early():\n    return time.time()\n"
    )
    findings = LintEngine(root=tmp_path).lint([file])
    assert [finding.line for finding in findings] == [4, 7]
    assert len(set(findings)) == len(findings)


def test_fingerprint_survives_line_shift(tmp_path: Path) -> None:
    """Baselined findings key on content, not position."""
    file = tmp_path / "mod.py"
    file.write_text("import time\n\nnow = time.time()\n")
    before = LintEngine(root=tmp_path).lint([file])[0]
    file.write_text("import time\n\n# a new comment shifts lines\n\nnow = time.time()\n")
    after = LintEngine(root=tmp_path).lint([file])[0]
    assert before.line != after.line
    assert before.fingerprint() == after.fingerprint()


def test_finding_location_format() -> None:
    finding = Finding(path="src/x.py", line=3, col=7, rule="determinism", message="m")
    assert finding.location() == "src/x.py:3:7"


def test_real_tree_runs_clean() -> None:
    """The acceptance gate: zero per-file findings over src/."""
    findings = LintEngine(root=ROOT).lint([ROOT / "src"])
    assert findings == [], [f"{f.location()}: {f.message}" for f in findings]
