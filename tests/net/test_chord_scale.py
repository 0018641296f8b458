"""Scale-engine tests for the Chord overlay: incremental repair vs a ring
built from scratch, the ring-order invariant, and the lookup memo."""

import math
import random

import pytest

from repro import obs
from repro.net.chord import ID_BITS, ChordRing, chord_id


def _tables_of(ring: ChordRing) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Canonical (name, fingers, successors) rows for equality checks."""
    return [
        (
            node.name,
            tuple(finger.name for finger in node.finger),
            tuple(successor.name for successor in node.successors),
        )
        for node in ring.nodes
    ]


def _fresh_twin(ring: ChordRing) -> ChordRing:
    """A ring built from scratch over the same membership and liveness."""
    twin = ChordRing([node.name for node in ring.nodes], successor_list_size=ring.r)
    for node in ring.nodes:
        if not node.up:
            twin.set_up(node.name, False)
    return twin


class TestRingOrderInvariant:
    def test_ids_mirror_nodes_through_churn(self):
        ring = ChordRing([f"inv-{i}" for i in range(24)])
        ring.join("inv-join-a")
        ring.leave("inv-3")
        ring.join("inv-join-b")
        assert ring._ids == [node.node_id for node in ring.nodes]
        assert ring._ids == sorted(ring._ids)
        assert set(ring._by_name) == {node.name for node in ring.nodes}

    def test_successor_of_matches_brute_force(self):
        ring = ChordRing([f"sb-{i}" for i in range(40)])
        rng = random.Random(7)
        for _ in range(200):
            point = rng.getrandbits(64)
            owner = ring._successor_of(point)
            expected = min(
                ring.nodes,
                key=lambda node: (node.node_id - point) % (1 << 64),
            )
            assert owner is expected


class TestIncrementalRepair:
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_random_churn_matches_full_rebuild(self, r):
        """Tables after any join/leave sequence equal a fresh build."""
        ring = ChordRing([f"rc{r}-{i}" for i in range(16)], successor_list_size=r)
        rng = random.Random(100 + r)
        joined = 0
        for step in range(60):
            if len(ring.nodes) > 3 and rng.random() < 0.5:
                ring.leave(rng.choice(ring.nodes).name)
            else:
                ring.join(f"rc{r}-extra-{joined}")
                joined += 1
            if step % 10 == 9:  # full check every few events
                assert _tables_of(ring) == _tables_of(_fresh_twin(ring))
        assert _tables_of(ring) == _tables_of(_fresh_twin(ring))

    def test_no_full_rebuilds_after_bootstrap(self):
        ring = ChordRing([f"nb-{i}" for i in range(32)])
        assert ring.table_builds == 1
        for i in range(10):
            ring.join(f"nb-new-{i}")
        for i in range(10):
            ring.leave(f"nb-new-{i}")
        assert ring.table_builds == 1
        assert ring.repair_ops > 0

    def test_repair_cost_logarithmic(self):
        """Pointer updates per churn event stay O(log n): bounded by a
        small multiple of ID_BITS regardless of ring size, and far below
        the O(n·ID_BITS) a full rebuild touches."""
        ring = ChordRing([f"rl-{i}" for i in range(512)], successor_list_size=4)
        rng = random.Random(9)
        costs = []
        for i in range(30):
            costs.append(ring.join(f"rl-new-{i}"))
        for i in range(30):
            ops, _ = ring.leave(f"rl-new-{i}")
            costs.append(ops)
        full_rebuild_cost = len(ring.nodes) * (ID_BITS + ring.r)
        assert max(costs) < 8 * (ID_BITS + ring.r * ring.r)
        assert max(costs) < full_rebuild_cost / 10
        assert sum(costs) / len(costs) < 4 * (ID_BITS + ring.r * ring.r)

    def test_leave_hands_records_to_heir(self):
        ring = ChordRing([f"ho-{i}" for i in range(12)])
        key = chord_id("handoff-coin")
        owner = ring.lookup(key).owner
        owner.put_local(key, "precious")
        ops, moved = ring.leave(owner.name)
        assert moved == 1
        assert "precious" in ring.lookup(key).owner.get_local(key)

    def test_join_duplicate_name_rejected(self):
        ring = ChordRing(["dup-a", "dup-b"])
        with pytest.raises(ValueError):
            ring.join("dup-a")

    def test_leave_last_node_rejected(self):
        ring = ChordRing(["lonely"])
        with pytest.raises(ValueError):
            ring.leave("lonely")

    def test_shrink_to_one_node(self):
        ring = ChordRing(["pair-a", "pair-b"])
        ring.leave("pair-a")
        solo = ring.nodes[0]
        assert all(finger is solo for finger in solo.finger)
        assert all(successor is solo for successor in solo.successors)
        assert ring.lookup(chord_id("anything")).owner is solo


class TestLookupEquivalence:
    def test_owner_and_hops_identical_across_paths(self):
        """After the same churn, a lookup on the incrementally repaired,
        memoized ring takes the path one takes on a ring built from
        scratch over the same membership and liveness."""
        ring = ChordRing([f"eq-{i}" for i in range(32)], successor_list_size=3)
        rng = random.Random(42)
        compared = 0
        for step in range(12):
            ring.join(f"eq-new-{step}")
            if step % 3 == 2:
                ring.leave(f"eq-new-{step - 1}")
            ring.set_up(rng.choice(ring.nodes).name, False)
            twin = _fresh_twin(ring)
            for _ in range(20):
                key = rng.getrandbits(64)
                start = rng.choice(ring.nodes)
                if not start.up:
                    continue
                result = ring.lookup(key, start=start)
                expected = twin.lookup(key, start=twin.node_by_name(start.name))
                assert (result.owner.name, result.hops, result.path) == (
                    expected.owner.name,
                    expected.hops,
                    expected.path,
                )
                compared += 1
        assert compared > 100

    def test_memo_hit_equals_a_miss_in_result_and_telemetry(self):
        ring = ChordRing([f"mt-{i}" for i in range(24)])
        keys = [chord_id(f"mt-key-{i}") for i in range(10)]

        def observed() -> tuple[list[tuple[str, int]], object, object]:
            obs.reset()
            with obs.enabled():
                results = [(r.owner.name, r.hops) for r in map(ring.lookup, keys)]
            snapshot = obs.registry().snapshot()
            return (
                results,
                snapshot["counters"]["chord_lookups_total"],
                snapshot["histograms"]["chord_lookup_hops"],
            )

        try:
            misses = observed()  # a new ring's memo is empty
            assert len(ring._lookup_memo) == len(keys)
            hits = observed()
            ring._lookup_memo.clear()
            misses_again = observed()
        finally:
            obs.reset()
        assert hits == misses == misses_again
        assert misses[1] == len(keys)

    def test_memo_replays_identical_result(self):
        ring = ChordRing([f"mm-{i}" for i in range(24)])
        key = chord_id("hot-key")
        first = ring.lookup(key)
        again = ring.lookup(key)
        assert again is first  # served from the memo
        ring.join("mm-invalidator")
        fresh = ring.lookup(key)
        assert fresh is not first
        assert fresh.owner.name == ring.lookup(key).owner.name

    def test_memo_invalidated_by_direct_up_flip(self):
        """Chaos-style direct ``node.up`` mutation must invalidate the memo."""
        ring = ChordRing([f"lf-{i}" for i in range(16)])
        key = chord_id("flip-key")
        first = ring.lookup(key)
        first.owner.up = False  # direct attribute write, no ring API
        second = ring.lookup(key)
        assert second is not first
        assert second.owner.up

    def test_live_count_tracks_flips(self):
        ring = ChordRing([f"lc-{i}" for i in range(8)])
        assert ring.live_count == 8
        ring.set_up("lc-0", False)
        ring.set_up("lc-0", False)  # idempotent
        assert ring.live_count == 7
        other = next(node for node in ring.nodes if node.up)
        other.up = False  # direct attribute write, no ring API
        assert ring.live_count == 6
        ring.set_up("lc-0", True)
        assert ring.live_count == 7


class TestScaleSmoke:
    def test_thousand_node_ring_hops_logarithmic(self):
        ring = ChordRing([f"big-{i}" for i in range(1000)], successor_list_size=4)
        rng = random.Random(11)
        hops = []
        for _ in range(150):
            result = ring.lookup(rng.getrandbits(64), start=rng.choice(ring.nodes))
            hops.append(result.hops)
        mean = sum(hops) / len(hops)
        assert mean <= 0.5 * math.log2(len(ring.nodes)) + 2
