"""The ``python -m repro lint`` subcommand: formats, rule selection, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

CLEAN = "VALUE = 42\n"
DIRTY = "import time\n\ndef f(g, x, p):\n    return pow(g, x, p), time.time()\n"


def _write(tmp_path: Path, source: str) -> Path:
    file = tmp_path / "core" / "mod.py"
    file.parent.mkdir(exist_ok=True)
    file.write_text(source)
    return file


def test_clean_file_exits_zero(tmp_path, capsys) -> None:
    file = _write(tmp_path, CLEAN)
    assert main(["lint", str(file)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out


def test_findings_exit_one_and_name_rule_and_location(tmp_path, capsys) -> None:
    file = _write(tmp_path, DIRTY)
    assert main(["lint", str(file)]) == 1
    out = capsys.readouterr().out
    assert "mod-arith" in out and "determinism" in out
    assert "mod.py:4:" in out  # rule + file:line for CI logs


def test_json_format(tmp_path, capsys) -> None:
    file = _write(tmp_path, DIRTY)
    assert main(["lint", str(file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {finding["rule"] for finding in payload["findings"]}
    assert rules == {"mod-arith", "determinism"}
    assert payload["ok"] is False
    assert payload["checked_files"] == 1
    assert all(
        {"path", "line", "col", "fingerprint"} <= set(f) for f in payload["findings"]
    )


def test_rule_filter_and_unknown_rule(tmp_path, capsys) -> None:
    file = _write(tmp_path, DIRTY)
    assert main(["lint", str(file), "--rule", "determinism"]) == 1
    out = capsys.readouterr().out
    assert "determinism" in out and "mod-arith" not in out
    assert main(["lint", str(file), "--rule", "bogus"]) == 2


def test_list_rules(capsys) -> None:
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "secret-flow",
        "rng-discipline",
        "mod-arith",
        "ct-compare",
        "determinism",
        "broad-except",
    ):
        assert rule_id in out


@pytest.mark.parametrize("flag", ["--baseline", "--write-" "baseline"])
def test_no_baseline_flag_accepts_a_finding(tmp_path, capsys, flag) -> None:
    """A finding fails the run; the only way to accept one is an inline
    ``# lint: ignore[rule]`` on its line."""
    file = _write(tmp_path, DIRTY)
    with pytest.raises(SystemExit) as exited:
        main(["lint", str(file), flag])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# program tier (--program)
# ----------------------------------------------------------------------
PROGRAM_FIXTURE = {
    "pkg/registry.py": (
        'SERVER_METHODS = ("do/add",)\n'
        "\n"
        "class GhostError(Exception):\n"
        "    pass\n"
        "\n"
        "def build(server):\n"
        "    def do_add(payload):\n"
        "        if int(payload['a']) < 0:\n"
        "            raise GhostError('negative')\n"
        '        return {"sum": int(payload["a"]) + int(payload["b"])}\n'
        "\n"
        '    return {"do/add": do_add}\n'
    ),
    "pkg/flows.py": (
        "def add_flow(node, rpc):\n"
        '    reply = rpc("do/add", {"a": 1, "b": 2})\n'
        '    return reply["sum"]\n'
    ),
}


def _write_fixture(tmp_path: Path) -> None:
    for relpath, text in PROGRAM_FIXTURE.items():
        file = tmp_path / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(text)


def test_list_rules_has_program_section(capsys) -> None:
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "program rules (--program):" in out
    for rule_id in ("journal-first", "async-safety", "exception-wire"):
        assert rule_id in out


def test_program_flag_reports_cross_module_findings(
    tmp_path, capsys, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    _write_fixture(tmp_path)
    assert main(["lint", "--program", "pkg"]) == 1
    out = capsys.readouterr().out
    assert "exception-wire" in out and "GhostError" in out


def test_program_rule_filter_and_unknown_rule(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    _write_fixture(tmp_path)
    assert main(["lint", "--program", "pkg", "--rule", "async-safety"]) == 0
    assert main(["lint", "--program", "pkg", "--rule", "bogus"]) == 2
