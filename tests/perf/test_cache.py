"""Memoization caches: LRU behavior, key normalization, logical replay."""

from __future__ import annotations

from repro import perf
from repro.crypto.counters import OpCounter, counting
from repro.perf.cache import MemoCache, _MISSING, _normalize, cache, memoized


class TestMemoCache:
    def test_miss_then_hit(self):
        store = MemoCache("t", max_size=4)
        assert store.get("k") is _MISSING
        store.put("k", 41)
        assert store.get("k") == 41

    def test_lru_eviction_prefers_recently_used(self):
        store = MemoCache("t", max_size=2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")  # refresh "a" so "b" is the eviction victim
        store.put("c", 3)
        assert store.get("a") == 1
        assert store.get("b") is _MISSING
        assert store.get("c") == 3

    def test_long_byte_keys_are_digested(self):
        blob_a = b"x" * 1000
        blob_b = b"y" * 1000
        assert _normalize(blob_a) != _normalize(blob_b)
        assert len(_normalize(blob_a)) == 32
        # Short byte strings and non-bytes survive untouched; tuples recurse.
        assert _normalize((b"short", 7, blob_a)) == (b"short", 7, _normalize(blob_a))
        # ``memoized`` normalizes a key once and stores it digested.
        memoized("memo-digest", ("sig", blob_a), lambda: True)
        store = cache("memo-digest")
        assert store.get(("sig", _normalize(blob_a))) is True
        assert store.get(("sig", _normalize(blob_b))) is _MISSING


class TestMemoized:
    def test_compute_runs_once(self):
        calls = []
        for _ in range(3):
            value = memoized("memo-test", ("k",), lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1

    def test_on_hit_fires_only_on_hits(self):
        hits = []
        memoized("memo-test", ("h",), lambda: 1, on_hit=lambda: hits.append(1))
        assert hits == []
        memoized("memo-test", ("h",), lambda: 1, on_hit=lambda: hits.append(1))
        assert hits == [1]


class TestVerifyMemo:
    def test_hit_replays_declared_logical_counts(self):
        """Table 1 accounting must not change when the cache fires."""

        def compute():
            from repro.crypto import counters

            counters.record_exp(4)
            counters.record_hash(2)
            return True

        with counting(OpCounter()) as miss_counter:
            perf.verify_memo("vm-replay", ("k",), compute, exp=4, hash=2)
        with counting(OpCounter()) as hit_counter:
            perf.verify_memo("vm-replay", ("k",), compute, exp=4, hash=2)
        assert miss_counter.snapshot() == (4, 2, 0, 0)
        assert hit_counter.snapshot() == miss_counter.snapshot()

    def test_cache_stats_include_fixed_base_tables(self):
        perf.verify_memo("vm-stats", ("k",), lambda: True)
        stats = perf.cache_stats()
        assert stats["vm-stats"] == 1
        assert "fixed-base-tables" in stats

    def test_hits_and_misses_are_counted_per_cache_and_reset(self):
        for key in ("a", "b", "a", "a"):
            perf.verify_memo("vm-hits", (key,), lambda: True)
        perf.verify_memo("vm-other", ("a",), lambda: True)
        counted = perf.memo_hit_stats()
        assert counted["vm-hits"] == {"hits": 2, "misses": 2}
        assert counted["vm-other"] == {"hits": 0, "misses": 1}
        # The entry counts keep their ``{name: int}`` shape beside them.
        assert perf.cache_stats()["vm-hits"] == 2
        perf.reset()
        assert perf.memo_hit_stats()["vm-hits"] == {"hits": 0, "misses": 0}
