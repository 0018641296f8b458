"""Runner behavior: determinism, suppression, and real-tree health."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.program import run_program, select_program_rules
from repro.lint.report import render_json

ROOT = Path(__file__).resolve().parent.parent.parent

REGISTRY = """
    SERVER_METHODS = ("do/add",)

    class GhostError(Exception):
        pass

    def build(server):
        def do_add(payload):{ignore}
            if int(payload["a"]) < 0:
                raise GhostError("negative")
            return {{"sum": int(payload["a"]) + int(payload["b"])}}

        return {{"do/add": do_add}}
    """

FIXTURE = {
    "pkg/registry.py": REGISTRY.format(ignore=""),
    "pkg/flows.py": """
    def add_flow(node, rpc):
        reply = rpc("do/add", {"a": 1, "b": 2})
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
    assert b"GhostError" in renders[0]


def test_syntax_error_becomes_parse_error_finding(tmp_path: Path) -> None:
    root = _write(tmp_path, {"pkg/broken.py": "def broken(:\n    pass\n"})
    run = run_program([root], root=root)
    assert [f.rule for f in run.findings] == ["parse-error"]
    assert run.findings[0].path == "pkg/broken.py"


def test_inline_ignore_star_suppresses_all_program_rules(tmp_path: Path) -> None:
    files = dict(FIXTURE)
    files["pkg/registry.py"] = REGISTRY.format(ignore="  # lint: ignore[*]")
    root = _write(tmp_path, files)
    run = run_program([root], root=root)
    assert run.findings == []


def test_real_tree_runs_clean() -> None:
    """The acceptance gate: zero program findings over src/, no baseline."""
    run = run_program([ROOT / "src"], root=ROOT)
    assert run.findings == [], [
        f"{f.location()}: {f.message}" for f in run.findings
    ]
    assert run.checked_files > 100
