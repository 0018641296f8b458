"""Runner behavior: determinism, the summary cache, and real-tree health."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.program import run_program, select_program_rules
from repro.lint.report import render_json

ROOT = Path(__file__).resolve().parent.parent.parent

FIXTURE = {
    "pkg/registry.py": """
    SERVER_METHODS = ("do/add", "do/ghost")

    def build(server):
        def do_add(payload):
            return {"sum": int(payload["a"]) + int(payload["b"])}

        return {"do/add": do_add}
    """,
    "pkg/flows.py": """
    def add_flow(node, rpc):
        reply = rpc("do/add", {"a": 1, "b": 2, "junk": 3})
        return reply["sum"]
    """,
}


def _write(tmp_path: Path, files: dict[str, str] | None = None) -> Path:
    for relpath, text in (files or FIXTURE).items():
        file = tmp_path / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(text))
    return tmp_path


def test_rule_registry_is_complete() -> None:
    assert sorted(select_program_rules()) == [
        "async-safety",
        "exception-wire",
        "journal-first",
        "wire-schema",
    ]
    with pytest.raises(KeyError):
        select_program_rules(["no-such-rule"])


def test_two_runs_render_byte_identical_json(tmp_path: Path) -> None:
    """CI artifact stability: same tree, same bytes, run to run."""
    root = _write(tmp_path)
    renders = []
    for _ in range(2):
        run = run_program([root], root=root)
        renders.append(
            render_json(run.findings, checked_files=run.checked_files).encode()
        )
    assert renders[0] == renders[1]
    assert b"do/ghost" in renders[0]


def test_syntax_error_becomes_parse_error_finding(tmp_path: Path) -> None:
    root = _write(tmp_path, {"pkg/broken.py": "def broken(:\n    pass\n"})
    run = run_program([root], root=root)
    assert [f.rule for f in run.findings] == ["parse-error"]
    assert run.findings[0].path == "pkg/broken.py"


def test_inline_ignore_star_suppresses_all_program_rules(tmp_path: Path) -> None:
    files = dict(FIXTURE)
    files["pkg/flows.py"] = """
    def add_flow(node, rpc):
        reply = rpc("do/add", {"a": 1, "b": 2})
        rpc("do/ghost", {})  # lint: ignore[*]
        return reply["sum"]
    """
    root = _write(tmp_path, files)
    run = run_program([root], root=root)
    assert not any("do/ghost" in f.message for f in run.findings)


def test_summary_cache_hits_on_second_run_and_invalidates_on_edit(
    tmp_path: Path,
) -> None:
    root = _write(tmp_path)
    cache_dir = tmp_path / ".lint_cache"

    first = run_program([root], root=root, cache_dir=cache_dir)
    assert (first.cache_hits, first.cache_misses) == (0, 2)

    second = run_program([root], root=root, cache_dir=cache_dir)
    assert (second.cache_hits, second.cache_misses) == (2, 0)
    assert [f.message for f in second.findings] == [
        f.message for f in first.findings
    ]

    # Editing one file invalidates exactly that file's entry.
    flows = root / "pkg" / "flows.py"
    flows.write_text(flows.read_text() + "\n# trailing comment\n")
    third = run_program([root], root=root, cache_dir=cache_dir)
    assert (third.cache_hits, third.cache_misses) == (1, 1)


def test_corrupt_cache_entry_degrades_to_a_miss(tmp_path: Path) -> None:
    root = _write(tmp_path)
    cache_dir = tmp_path / ".lint_cache"
    baseline_run = run_program([root], root=root, cache_dir=cache_dir)
    for entry in (cache_dir / "summaries").iterdir():
        entry.write_text("{corrupt")
    again = run_program([root], root=root, cache_dir=cache_dir)
    assert again.cache_misses == 2
    assert [f.message for f in again.findings] == [
        f.message for f in baseline_run.findings
    ]


def test_real_tree_runs_clean() -> None:
    """The acceptance gate: zero program findings over src/, no baseline."""
    run = run_program([ROOT / "src"], root=ROOT)
    assert run.findings == [], [
        f"{f.location()}: {f.message}" for f in run.findings
    ]
    assert run.checked_files > 100
