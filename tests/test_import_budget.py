"""A daemon imports what its role runs — held as a module list, not a stopwatch.

One fresh interpreter per role builds the daemon the way ``repro serve``
does and prints ``sorted(sys.modules)``. The simulator, the fault
injector, the extension protocols, the linter and the experiment
packages must not be there, nor ``sqlite3``: a durable daemon's store is
one WAL and a snapshot replayed into memory. Only a daemon given a state
dir may have loaded the store and its record hooks. How long start-up
takes is ``bench/run.py``'s ``setup_s`` / ``recover_s``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.daemon.demo import BROKER, MERCHANT, WITNESS, write_deployment

SRC = Path(__file__).resolve().parents[1] / "src"

NEVER = (
    [f"repro.net.{leaf}" for leaf in
     ("sim", "overlay", "node", "latency", "costmodel", "chord", "churn", "services")]
    + [f"repro.faults.{leaf}" for leaf in
       ("injector", "plan", "invariants", "byzantine", "scenarios")]
    + [f"repro.core.{leaf}" for leaf in
       ("arbiter", "escrow", "fair_exchange", "multiwitness", "incentives")]
    + ["repro.crypto.elgamal", "repro.lint", "repro.scale", "repro.analysis",
       "repro.baselines", "sqlite3"]
)
DURABLE_ONLY = ["repro.store", "repro.core.persistence"]

_BUILD = """
import json, sys
from repro.daemon.service import build_daemon
daemon = build_daemon(sys.argv[1], sys.argv[2], port=0, state_dir=sys.argv[3] or None)
print(json.dumps({"daemon": type(daemon).__name__, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def deployment_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("budget") / "dep"
    write_deployment(directory, seed=77)
    return directory


def modules_of(deployment_dir, name, state_dir=""):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _BUILD, str(deployment_dir), name, str(state_dir)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "name, daemon, durable",
    [
        (BROKER, "BrokerDaemon", False),
        (BROKER, "BrokerDaemon", True),
        (WITNESS, "WitnessDaemon", False),
        (WITNESS, "WitnessDaemon", True),
        (MERCHANT, "MerchantDaemon", False),
        (MERCHANT, "MerchantDaemon", True),
    ],
    ids=[
        "memory-broker",
        "durable-broker",
        "witness",
        "durable-witness",
        "storefront",
        "durable-storefront",
    ],
)
def test_role_imports_only_what_it_runs(deployment_dir, tmp_path, name, daemon, durable):
    built = modules_of(deployment_dir, name, tmp_path / "state" if durable else "")
    assert built["daemon"] == daemon
    loaded = set(built["modules"])
    assert "repro.daemon.service" in loaded and "repro.net.registry" in loaded
    assert sorted(loaded.intersection(NEVER)) == []
    for module in DURABLE_ONLY:
        assert (module in loaded) == durable, module


def test_the_serve_entry_point_stays_inside_the_budget():
    """``python -m repro serve`` reaches the daemon through ``repro.cli``."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.daemon.service; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = set(done.stdout.split())
    assert sorted(loaded.intersection(NEVER + DURABLE_ONLY)) == []
