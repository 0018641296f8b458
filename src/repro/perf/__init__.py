"""repro.perf — the physical-cost engine behind the logical crypto layer.

The paper's protocols are *specified* in logical operations (Table 1
counts exponentiations, hashes, signatures); this package makes the
physical execution of those operations fast without changing a single
logical count or protocol value:

* :mod:`~repro.perf.fixed_base` — which bases earn a precomputed
  fixed-base table (the generators ``g``, ``g1``, ``g2``, registered
  public keys and ``F(info)`` values, on their third use), so an
  exponentiation over one costs a multiplication per non-zero exponent
  digit;
* :mod:`~repro.perf.multiexp` — products of powers for the verification
  equations: one table walk over every tabled base, one ``powmod`` per
  other base;
* :mod:`~repro.perf.cache` — bounded memoization of values many coins
  share (``F(info)``, witness-range entries, gossip directories). A
  party checks each coin once, so a coin's own verdicts are never
  memoized: they would not repeat in one process;
* :mod:`~repro.perf.batch` — memoized subgroup membership, and
  small-random-exponent certification of fast-path commitment recoveries.

This is the only implementation at run time: there is no switch and no
second path to select. The table itself is a bigint-backend primitive
(:data:`repro.crypto.backend.FixedBaseTable`: ``int`` rows under python,
``mpz_t`` rows in GMP memory under gmp). The naive builtin-``pow``
formulas live in ``tests/reference/naive_crypto.py`` as the oracle the
differential tests hold this package to. The Table 1 accounting is
independent of how an operation is computed: instrumented
call sites record logical operation counts before dispatching, and cache
hits replay the logical counts of the work they skip.

Layering: this package depends only on :mod:`repro.obs` and the leaf
bigint-backend module :mod:`repro.crypto.backend` (plus lazy, call-time
imports of :mod:`repro.crypto.counters` inside :func:`verify_memo` and
:meth:`~repro.perf.batch.ClaimSet.certify`); the rest of the crypto and
core layers depend on it, never the reverse.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.perf import cache as _cache_module
from repro.perf import fixed_base as _fixed_base_module
from repro.perf.batch import (
    ClaimSet,
    CommitmentClaim,
    certify_claims,
    false_claims,
    is_subgroup_member,
)
from repro.perf.cache import MemoCache, cache, memoized
from repro.perf.fixed_base import fpow, register, table_for, untabled
from repro.perf.multiexp import multi_exp


def build_fixed_base(base: int, p: int, q: int) -> None:
    """Build the fixed-base table for a base immediately.

    Unlike :func:`register` this skips the use-count promotion and pays
    the table construction now.
    """
    _fixed_base_module.build(base, p, q)


def verify_memo(
    name: str,
    key: object,
    compute: Callable[[], object],
    exp: int = 0,
    hash: int = 0,
    sig: int = 0,
    ver: int = 0,
) -> object:
    """Memoize a verification, replaying its logical op counts on a hit.

    A miss computes (the computation records its own operations as
    usual) and a hit records the declared logical ``Exp``/``Hash``/
    ``Sig``/``Ver`` counts instead — so the paper's Table 1 accounting is
    identical whether or not the cache fires.
    """

    def on_hit() -> None:
        from repro.crypto import counters  # call-time import: see layering note

        if exp:
            counters.record_exp(exp)
        if hash:
            counters.record_hash(hash)
        if sig:
            counters.record_sig(sig)
        if ver:
            counters.record_ver(ver)

    return memoized(name, key, compute, on_hit=on_hit)


def cache_stats() -> dict[str, int]:
    """Entry counts per verification cache plus the fixed-base table count."""
    stats = _cache_module.stats()
    stats["fixed-base-tables"] = _fixed_base_module.table_count()
    return stats


def memo_hit_stats() -> dict[str, dict[str, int]]:
    """Hits and misses per verification cache (:func:`cache_stats` counts entries)."""
    return _cache_module.hit_stats()


def export_metrics() -> None:
    """Publish cache sizes as :mod:`repro.obs` gauges (metrics snapshots)."""
    for name, size in cache_stats().items():
        obs.gauge_set("perf_cache_size", size, cache=name)


def reset() -> None:
    """Drop every table and cache (tests and benchmarks)."""
    _cache_module.reset()
    _fixed_base_module.reset()


__all__ = [
    "ClaimSet",
    "CommitmentClaim",
    "MemoCache",
    "build_fixed_base",
    "cache",
    "cache_stats",
    "certify_claims",
    "false_claims",
    "export_metrics",
    "fpow",
    "is_subgroup_member",
    "memo_hit_stats",
    "memoized",
    "multi_exp",
    "register",
    "reset",
    "table_for",
    "untabled",
    "verify_memo",
]
