"""Before/after microbenchmarks for the perf engine.

Drives the real protocol stack — withdrawals, payments, deposits over a
live :class:`~repro.core.system.EcashSystem` — twice per section, once
with the perf engine forced off (naive square-and-multiply, Fermat
inversions, no caches) and once forced on, and reports both throughputs
plus their ratio. The ``python -m repro bench`` subcommand writes the
result to ``BENCH_payment.json``; CI re-runs the quick variant and fails
if the measured speedups regress against the checked-in baseline (ratios
are machine-independent, so the comparison survives runner changes).

Sections:

* ``payment_verify`` — full public verification of a signed payment
  transcript (coin signature, witness entry, witness transcript
  signature, representation proof): what a merchant does per sale.
* ``withdrawal`` — one complete Algorithm 1 run (client + broker).
* ``deposit_bulk`` — the broker clearing a pile of transcripts from one
  merchant: a per-item :meth:`~repro.core.broker.Broker.deposit` loop
  naive, one :meth:`~repro.core.broker.Broker.deposit_batch` call fast.

Each measured item is a *distinct* coin, so verification caches cannot
short-circuit the timed work; only the legitimately recurring artifacts
(fixed-base tables, the shared ``F(info)`` element, the witness's range
entry) are served warm, exactly as they would be in a long-lived broker.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro import perf
from repro.core.params import SystemParams, default_params, test_params
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.core.transcripts import SignedTranscript, verify_payment_response
from repro.core.witness_ranges import verify_entry_matches
from repro.crypto import backend as bigint_backend
from repro.crypto.schnorr import verify_batch as schnorr_verify_batch

#: Default output file, checked in as the CI regression baseline.
DEFAULT_RESULTS_PATH = "BENCH_payment.json"

#: A current speedup below ``tolerance * baseline speedup`` fails CI.
DEFAULT_TOLERANCE = 0.7

#: (warmup items, timed verify items, timed deposit items per side)
_QUICK_SIZES = (6, 36, 18)
_FULL_SIZES = (4, 16, 8)


def _build_transcripts(
    system: EcashSystem, merchant_id: str, count: int, now: int
) -> list[SignedTranscript]:
    """Withdraw and spend ``count`` distinct coins at ``merchant_id``.

    Coins whose witness happens to be the paying merchant are discarded
    and re-drawn, so every transcript is depositable by ``merchant_id``.
    """
    client = system.new_client()
    transcripts: list[SignedTranscript] = []
    while len(transcripts) < count:
        stored = run_withdrawal(client, system.broker, system.standard_info(100, now))
        if stored.coin.witness_id == merchant_id:
            continue
        witness = system.witness_of(stored)
        merchant = system.merchant(merchant_id)
        transcripts.append(run_payment(client, stored, merchant, witness, now))
    return transcripts


def _register_long_lived_bases(system: EcashSystem) -> None:
    """Re-register the deployment's fixed bases after a ``perf.reset()``."""
    group = system.params.group
    for base in (
        group.g,
        group.g1,
        group.g2,
        system.broker.blind_public,
        system.broker.sign_public,
    ):
        perf.register(base, group.p, group.q)
    for node in system.nodes.values():
        perf.register(node.merchant.public_key, group.p, group.q)


def _verify_payment(system: EcashSystem, signed: SignedTranscript) -> None:
    """Merchant-grade public verification of one signed transcript."""
    params = system.params
    coin = signed.transcript.coin
    if not coin.bare.verify_signature(params, system.broker.blind_public):
        raise AssertionError("bench workload produced an invalid coin")
    verify_entry_matches(
        params,
        system.broker.sign_public,
        coin.witness_entry,
        coin.digest(params),
        coin.info.list_version,
    )
    witness_public = system.merchant(coin.witness_id).public_key
    if not signed.verify_witness_signature(params, witness_public):
        raise AssertionError("bench workload produced an invalid witness signature")
    verify_payment_response(params, signed.transcript)


def _timed(work: Callable[[], None]) -> float:
    start = time.perf_counter()
    work()
    return max(time.perf_counter() - start, 1e-9)


def _section(naive_seconds: float, perf_seconds: float, items: int) -> dict[str, Any]:
    return {
        "items": items,
        "naive_ops_per_s": round(items / naive_seconds, 2),
        "perf_ops_per_s": round(items / perf_seconds, 2),
        "speedup": round(naive_seconds / perf_seconds, 3),
    }


def run_bench(
    quick: bool = False,
    params: SystemParams | None = None,
    seed: int = 2007,
    sizes: tuple[int, int, int] | None = None,
) -> dict[str, Any]:
    """Run every section and return the result mapping for one mode.

    Args:
        quick: use the 512-bit test group and larger iteration counts
            (CI smoke); the default is the paper's 1024-bit group.
        params: override the system parameters entirely (tests).
        seed: deterministic workload seed.
        sizes: override ``(warmup, verify items, deposit items)`` (tests).

    Returns:
        ``{"group_bits": ..., "backend": ..., "payment_verify": {...},
        "witness_sig_batch": {...}, "withdrawal": {...}, "deposit_bulk":
        {...}}`` with naive/perf throughputs and speedup ratios per
        section (plus ``gmp_version`` under the gmp and gmpy2 backends).
    """
    if params is None:
        params = test_params() if quick else default_params()
    warm_n, verify_n, deposit_n = sizes if sizes is not None else (
        _QUICK_SIZES if quick else _FULL_SIZES
    )
    system = EcashSystem(
        merchant_ids=("bench-shop", "bench-witness-a", "bench-witness-b"),
        params=params,
        seed=seed,
    )
    merchant_id = "bench-shop"
    now = 10
    total = warm_n + verify_n + 2 * deposit_n
    transcripts = _build_transcripts(system, merchant_id, total, now)
    warm = transcripts[:warm_n]
    verify_items = transcripts[warm_n : warm_n + verify_n]
    naive_deposit = transcripts[warm_n + verify_n : warm_n + verify_n + deposit_n]
    perf_deposit = transcripts[warm_n + verify_n + deposit_n :]

    results: dict[str, Any] = {
        "group_bits": params.group.p.bit_length(),
        # Which bigint arithmetic produced these numbers: GMP and pure
        # python differ by an order of magnitude, so runs are only
        # comparable backend-to-backend (tools/bench_diff.py enforces it).
        "backend": bigint_backend.name(),
    }
    gmp = bigint_backend.gmp_version()
    if gmp is not None:
        results["gmp_version"] = gmp

    # --- payment_verify -------------------------------------------------
    with perf.forced(False):
        naive_seconds = _timed(
            lambda: [_verify_payment(system, signed) for signed in verify_items]
        )
    with perf.forced(True):
        # Drop every cache warmed while *building* the workload, then
        # rebuild the legitimately long-lived state on sacrificial items.
        perf.reset()
        _register_long_lived_bases(system)
        for signed in warm:
            _verify_payment(system, signed)
        perf_seconds = _timed(
            lambda: [_verify_payment(system, signed) for signed in verify_items]
        )
    results["payment_verify"] = _section(naive_seconds, perf_seconds, verify_n)

    # --- witness_sig_batch ----------------------------------------------
    # The batched Schnorr verifier in isolation: per-item recovery plus
    # one combined certification equation, versus a plain verify loop.
    def _sig_items(
        batch: list[SignedTranscript],
    ) -> list[tuple[int, Any, tuple[Any, ...]]]:
        return [
            (
                system.merchant(signed.transcript.coin.witness_id).public_key,
                signed.witness_signature,
                signed.transcript.hash_parts(),
            )
            for signed in batch
        ]

    sig_items = _sig_items(verify_items)
    with perf.forced(False):
        naive_seconds = _timed(lambda: schnorr_verify_batch(params.group, sig_items))
    with perf.forced(True):
        perf.reset()
        _register_long_lived_bases(system)
        schnorr_verify_batch(params.group, _sig_items(warm))
        perf_seconds = _timed(lambda: schnorr_verify_batch(params.group, sig_items))
    results["witness_sig_batch"] = _section(naive_seconds, perf_seconds, verify_n)

    # --- withdrawal -----------------------------------------------------
    client = system.new_client()
    withdraw_n = max(verify_n // 2, 4)

    def withdraw_many() -> None:
        for _ in range(withdraw_n):
            run_withdrawal(client, system.broker, system.standard_info(100, now))

    with perf.forced(False):
        naive_seconds = _timed(withdraw_many)
    with perf.forced(True):
        perf_seconds = _timed(withdraw_many)
    results["withdrawal"] = _section(naive_seconds, perf_seconds, withdraw_n)

    # --- deposit_bulk ---------------------------------------------------
    def deposit_loop() -> None:
        for signed in naive_deposit:
            system.broker.deposit(merchant_id, signed, now)

    with perf.forced(False):
        naive_seconds = _timed(deposit_loop)
    with perf.forced(True):
        outcomes = None

        def deposit_batched() -> None:
            nonlocal outcomes
            outcomes = system.broker.deposit_batch(merchant_id, perf_deposit, now)

        perf_seconds = _timed(deposit_batched)
        bad = [item for item in outcomes if isinstance(item, Exception)]
        if bad:
            raise AssertionError(f"bench deposit batch rejected items: {bad}")
    results["deposit_bulk"] = _section(naive_seconds, perf_seconds, deposit_n)

    return results


def write_results(results: dict[str, Any], path: str | Path, mode: str) -> Path:
    """Merge one mode's results into the JSON results file.

    The file holds one object per mode (``"full"`` / ``"quick"``) so a
    quick CI run never clobbers the full numbers.
    """
    target = Path(path)
    existing: dict[str, Any] = {}
    if target.exists():
        existing = json.loads(target.read_text())
    existing[mode] = results
    target.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return target


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Compare measured speedups against a baseline's.

    Ratios (not absolute throughputs) are compared, so the check is
    stable across machines of different speeds.

    Returns:
        Human-readable failure strings; empty when everything holds.
    """
    failures: list[str] = []
    for section, base_values in baseline.items():
        if not isinstance(base_values, dict) or "speedup" not in base_values:
            continue
        measured = current.get(section, {})
        speedup = measured.get("speedup")
        floor = base_values["speedup"] * tolerance
        if speedup is None:
            failures.append(f"{section}: missing from current results")
        elif speedup < floor:
            failures.append(
                f"{section}: speedup {speedup:.2f}x below floor {floor:.2f}x "
                f"(baseline {base_values['speedup']:.2f}x, tolerance {tolerance})"
            )
    return failures


__all__ = [
    "DEFAULT_RESULTS_PATH",
    "DEFAULT_TOLERANCE",
    "check_regression",
    "run_bench",
    "write_results",
]
