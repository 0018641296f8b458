"""Engine-switch census, and the broker daemon's bulk path forks nothing.

Each ``REPRO_*`` variable doubles the configurations the suite has to
hold byte-identical, so a new one has to edit this file to land. The
one left selects the bigint backend, and takes ``auto``, ``gmp`` or
``python``; how an ``Exp`` is computed on top of it is not selectable
(the naive formulas are a test oracle, ``tests/reference/naive_crypto.py``).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_BATCH_IN_A_LOOP = """
import asyncio, json, sys

import repro.daemon.service
from repro.core.params import test_params
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto.serialize import pack_batch
from repro.net import registry

system = EcashSystem(merchant_ids=("witness", "shop"), params=test_params(),
                     seed=3, weights={"witness": 1.0})
client = system.new_client()
for _ in range(3):
    stored = run_withdrawal(client, system.broker, system.standard_info(5, 0))
    run_payment(client, stored, system.merchant("shop"), system.witness("witness"), 0)
items = [signed.to_wire() for signed in system.merchant("shop").pending_deposits()]
handler = registry.broker_dispatch(system.broker, lambda: 0)["deposit/batch"]

async def main():
    return handler({"merchant_id": "shop", "batch": pack_batch("t", items)})

reply = asyncio.run(main())
loaded = [name for name in ("multiprocessing", "concurrent.futures.process")
          if name in sys.modules]
import multiprocessing
print(json.dumps({
    "outcomes": [reply[f"r{index}"]["outcome"] for index in range(3)],
    "loaded": loaded,
    "children": len(multiprocessing.active_children()),
}))
"""


def test_the_bigint_backend_is_the_only_engine_switch():
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    names = {
        name for text in sources.values() for name in re.findall(r"REPRO_[A-Z0-9_]+", text)
    }
    assert names == {"REPRO_BACKEND"}

    from repro import perf

    gone = ("is_enabled", "set_enabled", "disabled", "forced")
    assert not [name for name in gone if hasattr(perf, name) or name in perf.__all__]
    call = re.compile(r"perf\.(is_enabled|forced|disabled|set_enabled)")
    assert not [str(path) for path, text in sources.items() if call.search(text)]


def test_the_bigint_backend_takes_auto_gmp_or_python():
    from repro.crypto import backend

    previous = backend.name()
    accepted = set()
    try:
        for value in ("auto", "gmp", "python", "gmp" "y2", "mpz", "native"):
            try:
                backend.set_backend(value, strict=False)
            except ValueError:
                continue
            accepted.add(value)
    finally:
        backend.set_backend(previous)
    assert accepted == {"auto", "gmp", "python"}

    # Spelled in pieces so that a search for a removed name finds only
    # code that still uses it.
    gone = ("wrap", "unwrap", "straus_beats_" "powmod", "BACKEND_GMP" "Y2")
    assert not [name for name in gone if hasattr(backend, name) or name in backend.__all__]
    # What a switch rebinds: the exponentiation and the fixed-base table.
    rebound = re.search(r"^    global (.+)$", (SRC / "repro/crypto/backend.py").read_text(), re.M)
    assert rebound is not None
    assert set(rebound.group(1).split(", ")) == {
        "powmod", "FixedBaseTable", "table_product", "_active"
    }


def test_no_process_forked_by_a_deposit_batch():
    result = subprocess.run(
        [sys.executable, "-c", _BATCH_IN_A_LOOP],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "outcomes": ["credited"] * 3,
        "loaded": [],
        "children": 0,
    }
