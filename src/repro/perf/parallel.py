"""Process-pool execution engine for the bulk crypto workloads.

The serial :mod:`repro.perf` engine makes one exponentiation cheap; this
module makes *piles* of them scale across cores. A :class:`CryptoPool`
wraps :class:`concurrent.futures.ProcessPoolExecutor` and executes the
three bulk workloads — payment-transcript verification, deposit batches
and withdrawal signing — as chunked tasks in worker processes:

* Task descriptors are **pickle-safe value objects**: group parameters,
  key material and serialized transcripts (frozen dataclasses of ints and
  strings) — never live :class:`~repro.core.broker.Broker`/ledger/RNG
  objects.
* Every worker runs a **warm-start initializer** that re-enables the perf
  engine and rebuilds the fixed-base comb tables for the generators and
  long-lived public keys once, so chunk execution never pays table
  construction on the hot path.
* Work is submitted as **chunks** (:attr:`CryptoPool.chunk_size` items
  per task) and each chunk runs the BGR small-exponent batch check with
  the per-item exact fallback preserved, so culprit naming matches the
  serial engine item for item.
* Results carry the **per-item logical operation deltas** measured inside
  the worker; the parent replays them into the active
  :class:`~repro.crypto.counters.OpCounter`, keeping the paper's Table 1
  accounting identical no matter where the physical work ran.

With ``REPRO_PARALLEL=off``, ``max_workers <= 1`` or a single-item batch,
every entry point falls back to a deterministic in-process path that is
byte-identical (results *and* logical counts) to the serial engine —
chunk partitioning and per-chunk batch seeds do not depend on the worker
count, so a batch verifies to the same outcome at 1, 2 or 8 workers.

Layering: module import time depends only on the standard library and
:mod:`repro.obs`/:mod:`repro.perf` submodules; the chunk executors import
the crypto/core layers lazily at call time (the same pattern
:func:`repro.perf.verify_memo` uses for counters).
"""

from __future__ import annotations

import atexit
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.exceptions import EcashError
    from repro.core.params import SystemParams
    from repro.core.transcripts import SignedTranscript
    from repro.core.witness_ranges import WitnessAssignmentTable

#: Items per worker task; chunking amortizes pickling and lets the BGR
#: batch check cover several transcripts per round trip.
DEFAULT_CHUNK_SIZE = 16


def _env_parallel_enabled() -> bool:
    return os.environ.get("REPRO_PARALLEL", "").strip().lower() not in {
        "off",
        "0",
        "false",
        "no",
    }


_parallel_enabled = _env_parallel_enabled()


def parallel_enabled() -> bool:
    """Whether the parallel engine may fan work out to worker processes."""
    return _parallel_enabled


def set_parallel_enabled(value: bool) -> None:
    """Switch the parallel engine on or off (process-wide)."""
    global _parallel_enabled
    _parallel_enabled = bool(value)


@contextmanager
def parallel_disabled() -> Iterator[None]:
    """Run a block with the parallel engine off, restoring the prior state."""
    global _parallel_enabled
    previous = _parallel_enabled
    _parallel_enabled = False
    try:
        yield
    finally:
        _parallel_enabled = previous


def default_workers() -> int:
    """Worker count used when a pool does not specify one.

    ``REPRO_WORKERS`` overrides; otherwise the schedulable CPU count (the
    container/cgroup view where available, not the raw host count).
    """
    override = os.environ.get("REPRO_WORKERS", "").strip()
    if override.isdigit():
        return max(int(override), 1)
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _chunk_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent 64-bit sub-seeds from one master seed."""
    rng = random.Random(seed)
    return tuple(rng.getrandbits(64) for _ in range(count))


# ----------------------------------------------------------------------
# Pickle-safe task descriptors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ItemOutcome:
    """Per-item result of a chunk: verdict plus logical-op deltas.

    Attributes:
        error: the :class:`~repro.core.exceptions.EcashError` the item
            raised in the worker, or ``None`` when it passed every check.
        ops: the ``(exp, hash, sig, ver)`` logical operations the item
            recorded inside the worker, replayed by the parent into its
            active counter so Table 1 accounting matches the serial path.
    """

    error: "EcashError | None"
    ops: tuple[int, int, int, int]


@dataclass(frozen=True)
class DepositChunkTask:
    """One deposit chunk: the broker-state snapshot plus the items.

    Everything here pickles by value — the signer secret travels to
    worker processes on the same host, exactly as the serial broker holds
    it in its own address space.
    """

    params: "SystemParams"
    signer_secret: int
    merchant_keys: dict[str, int]
    tables: dict[int, "WitnessAssignmentTable"]
    merchant_id: str
    items: tuple["SignedTranscript", ...]
    now: int
    batch_seed: int
    warm_bases: tuple[int, ...] = ()


@dataclass(frozen=True)
class PaymentChunkTask:
    """One payment-verification chunk: verifier keys plus the items."""

    params: "SystemParams"
    broker_blind_public: int
    broker_sign_public: int
    witness_keys: dict[str, int]
    items: tuple["SignedTranscript", ...]
    now: int
    batch_seed: int
    warm_bases: tuple[int, ...] = ()


@dataclass(frozen=True)
class WithdrawalSignTask:
    """One withdrawal-signing chunk: signer key plus per-coin seeds.

    ``seeds`` deterministically drive the signer nonces ``(u, s, d)`` so
    the parent can reconstruct and own the secret session state.
    """

    params: "SystemParams"
    signer_secret: int
    info_parts: tuple[tuple[Any, ...], ...]
    seeds: tuple[int, ...]
    warm_bases: tuple[int, ...] = ()


@dataclass(frozen=True)
class SignedChallenge:
    """Worker output for one withdrawal: ``(a, b)`` plus the session nonces."""

    a: int
    b: int
    u: int
    s: int
    d: int
    z: int
    ops: tuple[int, int, int, int]


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------

_worker_signers: dict[tuple[int, int], Any] = {}


def _worker_init(group_tuple: tuple[int, int, int, int, int], bases: tuple[int, ...]) -> None:
    """Warm-start a worker: enable the engines, rebuild comb tables.

    Runs once per worker process. Rebuilding here (rather than lazily via
    the promotion threshold) means the first chunk a worker receives is
    already served from tables, and under the ``spawn`` start method —
    where nothing is inherited from the parent — workers still converge
    to the same warm state as a long-lived serial broker.
    """
    import repro.perf as perf
    from repro.crypto.group import SchnorrGroup

    perf.set_enabled(True)
    p, q, g, g1, g2 = group_tuple
    group = SchnorrGroup(p=p, q=q, g=g, g1=g1, g2=g2)
    group.validate()
    for base in (g, g1, g2) + tuple(bases):
        perf.build_fixed_base(base, p, q)


def _warm_chunk_bases(params: "SystemParams", bases: Sequence[int]) -> None:
    """Ensure a chunk's long-lived bases are registered in this process."""
    import repro.perf as perf

    group = params.group
    for base in bases:
        perf.register_fixed_base(base, group.p, group.q)


def _signer_for(params: "SystemParams", secret: int) -> Any:
    """Per-process cache of the broker's blind signer (key-dependent)."""
    from repro.crypto.blind import PartiallyBlindSigner
    from repro.crypto import counters

    key = (params.group.p, secret)
    signer = _worker_signers.get(key)
    if signer is None:
        with counters.suppressed():
            signer = PartiallyBlindSigner(params.group, params.hashes, secret=secret)
        _worker_signers[key] = signer
    return signer


def _capture(counter: Any) -> tuple[int, int, int, int]:
    return counter.snapshot()


def _certified_failures(claims: Any, p: int, q: int, rng: Any) -> dict[int, str]:
    """Certify a chunk's claim set; map failed items to their earliest stage.

    Tokens are ``(index, stage)`` pairs; when both of an item's signature
    stages were implicated, the earlier one wins because the naive
    per-item path would have raised there first.
    """
    stage_order = {"coin": 0, "wsig": 1}
    worst: dict[int, str] = {}
    for token in claims.certify(p, q, rng):
        index, stage = token
        if index not in worst or stage_order[stage] < stage_order[worst[index]]:
            worst[index] = stage
    return worst


def run_deposit_chunk(task: DepositChunkTask) -> list[ItemOutcome]:
    """Execute one deposit chunk (worker side, also the serial fallback).

    Step 1 of Algorithm 3 for every item of the chunk — the checks of
    :meth:`repro.core.broker.Broker._verify_deposit`, same verdicts and
    logical op counts: per-item structure checks, the declared 3-``Exp``
    representation cost, one BGR batch over the chunk, and the exact
    per-item rescue naming culprits when the batch fails. Settlement
    (ledger and transcript-database effects) stays with the caller.
    """
    import random

    import repro.perf as perf
    from repro.core.exceptions import EcashError, InvalidCoinError, InvalidPaymentError
    from repro.crypto import counters
    from repro.crypto.representation import verify_response

    _warm_chunk_bases(task.params, task.warm_bases)
    group = task.params.group
    signer = _signer_for(task.params, task.signer_secret)
    outcomes: list[ItemOutcome | None] = [None] * len(task.items)
    checked: list[tuple[int, Any, "perf.RepresentationCheck"]] = []
    ops: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * len(task.items)
    claims = perf.ClaimSet()
    for index, signed in enumerate(task.items):
        counter = counters.OpCounter()
        with counter:
            try:
                verify_deposit_structure(
                    task.params,
                    signer,
                    task.merchant_keys,
                    task.tables,
                    task.merchant_id,
                    signed,
                    task.now,
                    claims,
                    index,
                )
            except EcashError as exc:
                outcomes[index] = ItemOutcome(error=exc, ops=_capture(counter))
                continue
            transcript = signed.transcript
            d = transcript.challenge(task.params)
            counters.record_exp(3)
        ops[index] = _capture(counter)
        checked.append(
            (
                index,
                transcript,
                perf.RepresentationCheck(
                    commitment_a=transcript.coin.bare.commitment_a,
                    commitment_b=transcript.coin.bare.commitment_b,
                    challenge=d,
                    r1=transcript.response.r1,
                    r2=transcript.response.r2,
                ),
            )
        )
    rng = random.Random(task.batch_seed)
    if checked and not perf.verify_batch(
        group.p, group.q, group.g1, group.g2, [c for _, _, c in checked], rng=rng
    ):
        survivors: list[tuple[int, Any, "perf.RepresentationCheck"]] = []
        for index, transcript, check in checked:
            with counters.suppressed():
                valid = verify_response(
                    group, check.commitment_a, check.commitment_b, check.challenge,
                    transcript.response,
                )
            if valid:
                survivors.append((index, transcript, check))
            else:
                outcomes[index] = ItemOutcome(
                    error=InvalidPaymentError(
                        "representation proof A*B^d == g1^r1*g2^r2 failed"
                    ),
                    ops=ops[index],
                )
        checked = survivors
    worst = _certified_failures(claims, group.p, group.q, rng)
    if worst:
        checked = [entry for entry in checked if entry[0] not in worst]
        for bad_index, stage in worst.items():
            error: EcashError
            if stage == "coin":
                error = InvalidCoinError(
                    "broker signature on deposited coin failed to verify"
                )
            else:
                error = InvalidPaymentError(
                    "witness signature on transcript failed to verify"
                )
            outcomes[bad_index] = ItemOutcome(error=error, ops=ops[bad_index])
    for index, _, _ in checked:
        outcomes[index] = ItemOutcome(error=None, ops=ops[index])
    return list(outcomes)  # type: ignore[arg-type]


def run_payment_chunk(task: PaymentChunkTask) -> list[ItemOutcome]:
    """Execute one payment-verification chunk (worker side and fallback).

    Per item: broker signature on the coin, witness-range entry, witness
    transcript signature; then the chunk's representation proofs collapse
    into one BGR batch, with the exact per-item rescue preserving culprit
    naming. Logical counts per item equal the serial per-item path.
    """
    import random

    import repro.perf as perf
    from repro.core.exceptions import EcashError, InvalidCoinError, InvalidPaymentError
    from repro.core.witness_ranges import verify_entry_matches
    from repro.crypto import counters
    from repro.crypto.representation import verify_response

    _warm_chunk_bases(task.params, task.warm_bases)
    params = task.params
    group = params.group
    outcomes: list[ItemOutcome | None] = [None] * len(task.items)
    checked: list[tuple[int, Any, "perf.RepresentationCheck"]] = []
    ops: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * len(task.items)
    claims = perf.ClaimSet()
    for index, signed in enumerate(task.items):
        counter = counters.OpCounter()
        with counter:
            try:
                transcript = signed.transcript
                coin = transcript.coin
                coin.ensure_valid_signature(
                    params, task.broker_blind_public, claims, (index, "coin")
                )
                coin.ensure_spendable(task.now)
                verify_entry_matches(
                    params,
                    task.broker_sign_public,
                    coin.witness_entry,
                    coin.digest(params),
                    coin.info.list_version,
                )
                witness_public = task.witness_keys.get(coin.witness_id)
                if witness_public is None:
                    raise InvalidPaymentError(
                        f"no verification key for witness {coin.witness_id!r}"
                    )
                if not signed.verify_witness_signature(
                    params, witness_public, claims, (index, "wsig")
                ):
                    raise InvalidPaymentError(
                        "witness signature on transcript failed to verify"
                    )
            except EcashError as exc:
                outcomes[index] = ItemOutcome(error=exc, ops=_capture(counter))
                continue
            d = transcript.challenge(params)
            counters.record_exp(3)
        ops[index] = _capture(counter)
        checked.append(
            (
                index,
                transcript,
                perf.RepresentationCheck(
                    commitment_a=transcript.coin.bare.commitment_a,
                    commitment_b=transcript.coin.bare.commitment_b,
                    challenge=d,
                    r1=transcript.response.r1,
                    r2=transcript.response.r2,
                ),
            )
        )
    rng = random.Random(task.batch_seed)
    if checked and not perf.verify_batch(
        group.p, group.q, group.g1, group.g2, [c for _, _, c in checked], rng=rng
    ):
        survivors: list[tuple[int, Any, "perf.RepresentationCheck"]] = []
        for index, transcript, check in checked:
            with counters.suppressed():
                valid = verify_response(
                    group, check.commitment_a, check.commitment_b, check.challenge,
                    transcript.response,
                )
            if valid:
                survivors.append((index, transcript, check))
            else:
                outcomes[index] = ItemOutcome(
                    error=InvalidPaymentError(
                        "representation proof A*B^d == g1^r1*g2^r2 failed"
                    ),
                    ops=ops[index],
                )
        checked = survivors
    worst = _certified_failures(claims, group.p, group.q, rng)
    if worst:
        checked = [entry for entry in checked if entry[0] not in worst]
        for bad_index, stage in worst.items():
            error: EcashError
            if stage == "coin":
                error = InvalidCoinError(
                    "broker's partially blind signature failed to verify"
                )
            else:
                error = InvalidPaymentError(
                    "witness signature on transcript failed to verify"
                )
            outcomes[bad_index] = ItemOutcome(error=error, ops=ops[bad_index])
    for index, _, _ in checked:
        outcomes[index] = ItemOutcome(error=None, ops=ops[index])
    return list(outcomes)  # type: ignore[arg-type]


def run_withdrawal_chunk(task: WithdrawalSignTask) -> list[SignedChallenge]:
    """Execute one withdrawal-signing chunk (worker side and fallback).

    Computes, per coin, the broker's step-1 message ``(a, b)`` — the 3
    ``Exp`` + 1 ``Hash`` of the withdrawal row — with the session nonces
    drawn from the task's per-coin seeds so the caller can reconstruct
    (and exclusively own) the secret :class:`~repro.crypto.blind.SignerSession`.
    """
    import random

    from repro.crypto import counters
    from repro.crypto.numbers import random_scalar

    _warm_chunk_bases(task.params, task.warm_bases)
    params = task.params
    group = params.group
    out: list[SignedChallenge] = []
    for parts, seed in zip(task.info_parts, task.seeds):
        rng = random.Random(seed)
        counter = counters.OpCounter()
        with counter:
            z = params.hashes.F(*parts)
            u = random_scalar(group.q, rng)
            s = random_scalar(group.q, rng)
            d = random_scalar(group.q, rng)
            a = group.exp(group.g, u)
            b = group.commit2(group.g, s, z, d)
        out.append(
            SignedChallenge(a=a, b=b, u=u, s=s, d=d, z=z, ops=_capture(counter))
        )
    return out


def verify_deposit_structure(
    params: "SystemParams",
    signer: Any,
    merchant_keys: dict[str, int],
    tables: dict[int, "WitnessAssignmentTable"],
    merchant_id: str,
    signed: "SignedTranscript",
    now: int,
    claims: Any = None,
    index: int | None = None,
) -> None:
    """Algorithm 3 step 1 minus the representation check, state-free.

    The checks of :meth:`repro.core.broker.Broker._verify_deposit` ahead
    of its representation check, expressed over an explicit state
    snapshot, so the broker process and pool workers run the same checks
    in the same order (same exceptions, same logical op counts). Chunk runners thread a
    :class:`~repro.perf.batch.ClaimSet` plus the item's chunk ``index``
    through so the signature fast paths register their recovery claims
    under ``(index, stage)`` tokens.

    Raises:
        UnknownMerchantError, InvalidCoinError, ExpiredCoinError,
        WrongWitnessError, InvalidPaymentError: per failed check.
    """
    import repro.perf as perf
    from repro.core.exceptions import (
        ExpiredCoinError,
        InvalidCoinError,
        InvalidPaymentError,
        UnknownMerchantError,
        WrongWitnessError,
    )

    if merchant_id not in merchant_keys:
        raise UnknownMerchantError(f"merchant {merchant_id!r} is not registered")
    transcript = signed.transcript
    coin = transcript.coin
    if transcript.merchant_id != merchant_id:
        raise InvalidPaymentError("transcript names a different depositing merchant")
    if claims is not None and perf.is_enabled():
        coin_ok, recovered = signer.check_with_secret(
            coin.info.hash_parts(), coin.bare.message_parts(), coin.bare.signature
        )
        if coin_ok and recovered:
            claims.add(
                (index, "coin"),
                recovered,
                lambda: signer.verify_with_secret(
                    coin.info.hash_parts(), coin.bare.message_parts(), coin.bare.signature
                ),
            )
    else:
        coin_ok = signer.verify_with_secret(
            coin.info.hash_parts(), coin.bare.message_parts(), coin.bare.signature
        )
    if not coin_ok:
        raise InvalidCoinError("broker signature on deposited coin failed to verify")
    if not coin.info.is_spendable(now):
        raise ExpiredCoinError("coin is past its soft expiry and no longer cashable")
    table = tables.get(coin.info.list_version)
    if table is None:
        raise WrongWitnessError(
            f"coin references unknown witness list v{coin.info.list_version}"
        )
    digest = coin.digest(params)
    expected = table.witness_for(digest)
    if expected.merchant_id != coin.witness_id or expected.range != coin.witness_entry.range:
        raise WrongWitnessError("coin's attached witness entry does not match the table")
    witness_public = merchant_keys.get(coin.witness_id)
    if witness_public is None:
        raise UnknownMerchantError(f"merchant {coin.witness_id!r} is not registered")
    if not signed.verify_witness_signature(params, witness_public, claims, (index, "wsig")):
        raise InvalidPaymentError("witness signature on transcript failed to verify")


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


@dataclass
class CryptoPool:
    """A process pool for the bulk crypto workloads.

    Args:
        max_workers: worker processes (``None``: :func:`default_workers`).
        chunk_size: items per submitted task.
        warm_bases: long-lived bases (broker/witness public keys) every
            worker pre-tabulates in its initializer.

    The executor starts lazily on the first chunked call and only when
    the pool is :meth:`active`; otherwise every entry point runs the
    chunk functions in-process, deterministically, with identical results
    — so a ``CryptoPool`` is always safe to construct and call, whatever
    the host or the ``REPRO_PARALLEL`` switch says.
    """

    max_workers: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    warm_bases: tuple[int, ...] = ()
    _executor: ProcessPoolExecutor | None = field(default=None, repr=False)
    _executor_group: tuple[int, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    @property
    def workers(self) -> int:
        """The effective worker count."""
        return self.max_workers if self.max_workers is not None else default_workers()

    def active(self) -> bool:
        """Whether calls will actually fan out to worker processes."""
        return _parallel_enabled and self.workers > 1

    def close(self) -> None:
        """Shut the executor down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            self._executor_group = None

    def __enter__(self) -> "CryptoPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------

    def _chunks(self, n: int) -> list[tuple[int, int]]:
        return [(lo, min(lo + self.chunk_size, n)) for lo in range(0, n, self.chunk_size)]

    def _ensure_executor(self, params: "SystemParams") -> ProcessPoolExecutor:
        group = params.group
        key = (group.p, group.q, group.g, group.g1, group.g2)
        if self._executor is not None and self._executor_group != key:
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(key, tuple(self.warm_bases)),
            )
            self._executor_group = key
            obs.gauge_set("parallel_pool_workers", self.workers)
        return self._executor

    def _map_chunks(
        self, params: "SystemParams", tasks: list[Any], runner: Any
    ) -> list[list[Any]]:
        """Run chunk tasks through the executor (or in-process fallback)."""
        obs.counter_inc("parallel_pool_chunks_total", len(tasks))
        if not self.active() or len(tasks) == 1 and len(tasks[0].items) <= 1:
            return [runner(task) for task in tasks]
        executor = self._ensure_executor(params)
        started = time.perf_counter()
        results = list(executor.map(runner, tasks))
        obs.observe("parallel_pool_map_seconds", time.perf_counter() - started)
        return results

    # -- workloads ------------------------------------------------------

    def run_deposit_checks(
        self,
        params: "SystemParams",
        signer_secret: int,
        merchant_keys: dict[str, int],
        tables: dict[int, "WitnessAssignmentTable"],
        merchant_id: str,
        items: Sequence["SignedTranscript"],
        now: int,
        seed: int,
    ) -> list[ItemOutcome]:
        """Verify a deposit batch in chunks; returns per-item outcomes.

        ``seed`` deterministically derives one BGR batch seed per chunk;
        the chunk partition depends only on :attr:`chunk_size`, so the
        same call produces the same outcomes at any worker count. The
        caller replays each outcome's ``ops`` and then settles survivors
        sequentially.
        """
        spans = self._chunks(len(items))
        seeds = _chunk_seeds(seed, len(spans))
        tasks = [
            DepositChunkTask(
                params=params,
                signer_secret=signer_secret,
                merchant_keys=dict(merchant_keys),
                tables=dict(tables),
                merchant_id=merchant_id,
                items=tuple(items[lo:hi]),
                now=now,
                batch_seed=seeds[chunk_index],
                warm_bases=tuple(self.warm_bases),
            )
            for chunk_index, (lo, hi) in enumerate(spans)
        ]
        obs.counter_inc("parallel_pool_tasks_total", len(items), workload="deposit")
        chunked = self._map_chunks(params, tasks, run_deposit_chunk)
        return [outcome for chunk in chunked for outcome in chunk]

    def run_payment_checks(
        self,
        params: "SystemParams",
        broker_blind_public: int,
        broker_sign_public: int,
        witness_keys: dict[str, int],
        items: Sequence["SignedTranscript"],
        now: int,
        seed: int,
    ) -> list[ItemOutcome]:
        """Verify many signed payment transcripts in chunks.

        Like :meth:`run_deposit_checks`, ``seed`` derives the per-chunk
        BGR seeds and outcomes are independent of the worker count.
        """
        spans = self._chunks(len(items))
        seeds = _chunk_seeds(seed, len(spans))
        tasks = [
            PaymentChunkTask(
                params=params,
                broker_blind_public=broker_blind_public,
                broker_sign_public=broker_sign_public,
                witness_keys=dict(witness_keys),
                items=tuple(items[lo:hi]),
                now=now,
                batch_seed=seeds[chunk_index],
                warm_bases=tuple(self.warm_bases),
            )
            for chunk_index, (lo, hi) in enumerate(spans)
        ]
        obs.counter_inc("parallel_pool_tasks_total", len(items), workload="payment")
        chunked = self._map_chunks(params, tasks, run_payment_chunk)
        return [outcome for chunk in chunked for outcome in chunk]

    def sign_withdrawals(
        self,
        params: "SystemParams",
        signer_secret: int,
        info_parts: Sequence[tuple[Any, ...]],
        seed: int,
    ) -> list[SignedChallenge]:
        """Compute withdrawal step-1 challenges ``(a, b)`` in chunks.

        ``seed`` derives one nonce seed per coin, so each signing session
        stays independent (the unlinkability requirement of Algorithm 1's
        batch note) while the whole batch remains reproducible.
        """
        seeds = _chunk_seeds(seed, len(info_parts))
        spans = self._chunks(len(info_parts))
        tasks = [
            WithdrawalSignTask(
                params=params,
                signer_secret=signer_secret,
                info_parts=tuple(info_parts[lo:hi]),
                seeds=tuple(seeds[lo:hi]),
                warm_bases=tuple(self.warm_bases),
            )
            for lo, hi in spans
        ]
        obs.counter_inc(
            "parallel_pool_tasks_total", len(info_parts), workload="withdrawal"
        )
        if not self.active() or len(tasks) == 1 and len(tasks[0].info_parts) <= 1:
            chunked = [run_withdrawal_chunk(task) for task in tasks]
        else:
            executor = self._ensure_executor(params)
            chunked = list(executor.map(run_withdrawal_chunk, tasks))
        return [challenge for chunk in chunked for challenge in chunk]


# ----------------------------------------------------------------------
# Shared pool
# ----------------------------------------------------------------------

_shared_pool: CryptoPool | None = None


def shared_pool() -> CryptoPool | None:
    """The process-wide pool bulk call sites use when given none.

    Returns ``None`` unless the parallel engine is on *and* more than one
    worker is available — callers fall back to their serial paths in that
    case, which keeps single-core hosts and ``REPRO_PARALLEL=off`` runs
    byte-identical to the serial engine.
    """
    global _shared_pool
    if not _parallel_enabled or default_workers() <= 1:
        return None
    if _shared_pool is None:
        _shared_pool = CryptoPool()
        atexit.register(shutdown_shared_pool)
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests and interpreter exit)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.close()
        _shared_pool = None


def replay_ops(ops: tuple[int, int, int, int]) -> None:
    """Replay an item's logical op deltas into the active counter.

    Adds directly to the counter rather than going through
    ``counters.record_*``: the physical operations already fed the
    telemetry of whichever process executed them, so replay must move
    only the Table 1 attribution, never the raw-execution metrics.
    """
    from repro.crypto import counters

    counter = counters.current_counter()
    if counter is None:
        return
    counter.exp += ops[0]
    counter.hash += ops[1]
    counter.sig += ops[2]
    counter.ver += ops[3]


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CryptoPool",
    "DepositChunkTask",
    "ItemOutcome",
    "PaymentChunkTask",
    "SignedChallenge",
    "WithdrawalSignTask",
    "default_workers",
    "parallel_disabled",
    "parallel_enabled",
    "replay_ops",
    "run_deposit_chunk",
    "run_payment_chunk",
    "run_withdrawal_chunk",
    "set_parallel_enabled",
    "shared_pool",
    "shutdown_shared_pool",
    "verify_deposit_structure",
]
