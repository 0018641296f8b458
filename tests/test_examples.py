"""Every script under ``examples/`` runs to completion as its docstring says.

Each one runs in a fresh interpreter the way a reader would run it
(``python examples/<name>.py`` with ``src`` on the path) and must exit 0
without writing to stderr: a warning, a traceback or an import of a
module that no longer exists fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_directory_is_not_empty():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_runs_cleanly(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
