"""A Chord distributed hash table.

The related-work baselines (WhoPay, Hoepman) use the P2P system itself as
"a distributed database for spent coins ... queried using a DHT routing
layer such as Chord". This module implements Chord's ring structure —
consistent hashing of node identifiers, successor lists, finger tables and
O(log N) iterative lookup — sized for overlay-level experiments up to the
scale campaigns' 10k+ nodes, plus replicated storage on successor sets.

Malicious behaviour hooks: a node can be marked ``malicious``, in which
case it suppresses stored records and answers "not found" — the attack
that makes DHT-based double-spend detection probabilistic (Section 2:
"the distributed database cannot be fully trusted ... and can only
support probabilistic guarantees").

Ring-order invariant
--------------------
``self.nodes`` is always sorted ascending by ``node_id``, and the
parallel array ``self._ids`` mirrors it (``self._ids[i] ==
self.nodes[i].node_id``). Every hot path — successor resolution, a node's
ring position, live-successor fallback, name lookup — is a bisect over
``self._ids`` or an O(1) dict probe, never a linear ring scan. Membership
changes (:meth:`ChordRing.join` / :meth:`ChordRing.leave`) splice both
arrays in lock step and bump :attr:`ChordRing.version`; liveness flips
bump :attr:`ChordRing.liveness_epoch` (via ``ChordNode.up`` assignment,
which notifies the owning ring), and the lookup memo is keyed on both so
a stale routing answer can never be served.

Performance discipline: membership changes repair finger tables and
successor lists *incrementally* in expected O(log n) pointer updates and
lookups are memoized per ``(key, start, version, liveness)``. The full
:meth:`ChordRing._build_tables` rebuild runs once, at construction; the
tests hold the repaired tables, owners and hop counts to those of a ring
freshly built over the same membership.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

from repro import obs
from repro.core.exceptions import ChordLookupError

#: Width of Chord identifiers.
ID_BITS = 64
ID_SPACE = 1 << ID_BITS

#: Cap on the per-ring lookup memo (entries); prevents million-key
#: campaigns from holding one cached result per distinct coin forever.
LOOKUP_MEMO_MAX = 65536


def chord_id(name: str | int) -> int:
    """Hash a name (or key) onto the identifier ring."""
    data = str(name).encode("utf-8")
    return int.from_bytes(hashlib.sha256(b"chord/" + data).digest()[:8], "big")


def in_interval(value: int, low: int, high: int, inclusive_high: bool = False) -> bool:
    """Ring-interval membership test for ``(low, high)`` or ``(low, high]``."""
    value, low, high = value % ID_SPACE, low % ID_SPACE, high % ID_SPACE
    if low == high:
        # Degenerate interval wraps the whole ring: (x, x] is everything,
        # (x, x) is everything except x itself.
        return True if inclusive_high else value != low
    if low < high:
        return low < value < high or (inclusive_high and value == high)
    return value > low or value < high or (inclusive_high and value == high)


@dataclass(eq=False)
class ChordNode:
    """One DHT participant.

    Identity semantics (``eq=False``): nodes are compared and hashed by
    object identity, so they can key sets/dicts and sit inside each
    other's finger tables without recursive value comparison.

    Assigning :attr:`up` notifies the owning ring (when attached) so the
    ring's live-node count stays O(1) to read and the routing memo keyed
    on the liveness epoch is invalidated — tests and chaos scenarios that
    flip ``node.up`` directly stay correct.
    """

    name: str
    node_id: int
    malicious: bool = False
    up: bool = True
    store: dict[int, list[object]] = field(default_factory=dict)
    finger: list["ChordNode"] = field(default_factory=list)
    successors: list["ChordNode"] = field(default_factory=list)

    def __setattr__(self, name: str, value: object) -> None:
        if name == "up":
            ring = getattr(self, "_ring", None)
            if ring is not None and getattr(self, "up", None) != bool(value):
                ring.liveness_epoch += 1
                ring.live_count += 1 if value else -1
        object.__setattr__(self, name, value)

    def put_local(self, key: int, value: object) -> None:
        """Store a record locally (malicious nodes silently discard)."""
        if self.malicious:
            return
        self.store.setdefault(key, []).append(value)

    def get_local(self, key: int) -> list[object]:
        """Return local records (malicious nodes deny knowledge)."""
        if self.malicious:
            return []
        return list(self.store.get(key, []))


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a Chord lookup."""

    owner: "ChordNode"
    hops: int
    path: tuple[str, ...]


class ChordRing:
    """A fully built Chord overlay.

    The ring is constructed eagerly (no join/stabilize message churn) and
    then maintained incrementally: :meth:`join` and :meth:`leave` repair
    exactly the finger/successor pointers a membership change invalidates
    instead of rebuilding every table, so a churn event costs expected
    O(log n) pointer updates at any ring size. ``lookup`` still walks real
    finger tables so hop counts are authentic O(log N).

    Args:
        node_names: participant names (hashed onto the ring).
        successor_list_size: replication factor r — records for a key are
            stored on the key's first r live successors.

    Attributes:
        version: membership version; bumped by every join/leave.
        liveness_epoch: bumped whenever any attached node's ``up`` flips.
        live_count: number of currently-up members (maintained O(1)).
        table_builds: number of full :meth:`_build_tables` passes (the
            scale campaign reports it; churn never adds to the
            bootstrap build).
        repair_ops: cumulative pointer updates done by incremental repair.
    """

    def __init__(self, node_names: list[str], successor_list_size: int = 3) -> None:
        if not node_names:
            raise ValueError("a Chord ring needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ValueError("duplicate node names")
        self.r = successor_list_size
        self.version = 0
        self.liveness_epoch = 0
        self.live_count = 0
        self.table_builds = 0
        self.repair_ops = 0
        self.nodes = sorted(
            (ChordNode(name=name, node_id=chord_id(name)) for name in node_names),
            key=lambda node: node.node_id,
        )
        if len({node.node_id for node in self.nodes}) != len(self.nodes):
            raise ValueError("chord id collision; rename a node")
        #: Sorted id array mirroring ``self.nodes`` (ring-order invariant).
        self._ids = [node.node_id for node in self.nodes]
        self._by_name = {node.name: node for node in self.nodes}
        self._lookup_memo: dict[tuple[int, str], tuple[int, int, LookupResult]] = {}
        self.live_count = len(self.nodes)
        for node in self.nodes:
            node._ring = self  # type: ignore[attr-defined]
        self._build_tables()

    # ------------------------------------------------------------------
    # Construction and index maintenance
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """Full O(n log n) build of every node's tables — the bootstrap."""
        self.table_builds += 1
        count = len(self.nodes)
        for index, node in enumerate(self.nodes):
            node.successors = [
                self.nodes[(index + offset) % count] for offset in range(1, self.r + 1)
            ]
            node.finger = [
                self._successor_of((node.node_id + (1 << bit)) % ID_SPACE)
                for bit in range(ID_BITS)
            ]

    def _successor_of(self, point: int) -> ChordNode:
        """The first node at or after ``point`` on the ring (O(log n))."""
        index = bisect.bisect_left(self._ids, point % ID_SPACE)
        return self.nodes[index % len(self.nodes)]

    def _index_of(self, node: ChordNode) -> int:
        """A member's ring position, by bisect over the sorted ids."""
        return bisect.bisect_left(self._ids, node.node_id)

    def _nodes_between(self, low: int, high: int) -> list[ChordNode]:
        """Nodes whose id lies in the ring interval ``(low, high]``."""
        low, high = low % ID_SPACE, high % ID_SPACE
        if low == high:  # degenerate: (x, x] wraps the whole ring
            return list(self.nodes)
        start = bisect.bisect_right(self._ids, low)
        stop = bisect.bisect_right(self._ids, high)
        if low < high:
            return self.nodes[start:stop]
        return self.nodes[start:] + self.nodes[:stop]

    # ------------------------------------------------------------------
    # Membership: incremental join/leave repair
    # ------------------------------------------------------------------
    def join(self, name: str) -> int:
        """Add a node, repairing routing state; returns pointer updates.

        The repair is incremental: the new node's own tables are computed
        directly (bisect per finger) and exactly the existing pointers the
        join invalidates — the i-th fingers of nodes in
        ``(pred - 2^i, new - 2^i]`` and the successor lists of the new
        node's r predecessors — are rewritten, expected O(log n) updates.

        Raises:
            ValueError: duplicate name or (astronomically unlikely) id
                collision.
        """
        if name in self._by_name:
            raise ValueError(f"duplicate node name {name!r}")
        node = ChordNode(name=name, node_id=chord_id(name))
        index = bisect.bisect_left(self._ids, node.node_id)
        if index < len(self._ids) and self._ids[index] == node.node_id:
            raise ValueError("chord id collision; rename a node")
        self.nodes.insert(index, node)
        self._ids.insert(index, node.node_id)
        self._by_name[name] = node
        node._ring = self  # type: ignore[attr-defined]
        self.live_count += 1
        self.version += 1
        self._lookup_memo.clear()
        ops = self._repair_after_join(node, index)
        self.repair_ops += ops
        obs.counter_inc("ring_repair_ops_total", ops)
        return ops

    def _repair_after_join(self, node: ChordNode, index: int) -> int:
        count = len(self.nodes)
        ops = 0
        # The new node's own routing state, computed directly.
        node.successors = [
            self.nodes[(index + offset) % count] for offset in range(1, self.r + 1)
        ]
        node.finger = [
            self._successor_of((node.node_id + (1 << bit)) % ID_SPACE)
            for bit in range(ID_BITS)
        ]
        ops += self.r + ID_BITS
        # Successor lists that must now include the new node: its r
        # predecessors (everyone else's window is untouched).
        for offset in range(1, min(self.r, count - 1) + 1):
            pred_index = (index - offset) % count
            pred = self.nodes[pred_index]
            pred.successors = [
                self.nodes[(pred_index + step) % count]
                for step in range(1, self.r + 1)
            ]
            ops += self.r
        # Fingers that must now point at the new node u: finger[i] of p is
        # successor(p + 2^i), and successor(x) == u iff x ∈ (pred(u), u],
        # so exactly the nodes with id in (pred(u) - 2^i, u - 2^i].
        pred_id = self.nodes[(index - 1) % count].node_id
        if pred_id == node.node_id:  # single-node ring: nothing to repair
            return ops
        for bit in range(ID_BITS):
            span = 1 << bit
            for peer in self._nodes_between(pred_id - span, node.node_id - span):
                if peer is node:
                    continue
                if peer.finger[bit] is not node:
                    peer.finger[bit] = node
                    ops += 1
        return ops

    def leave(self, name: str) -> tuple[int, int]:
        """Remove a node, repairing routing state and handing off records.

        The departing node's stored records move to the new owner of its
        id range (its old successor) — the range-rebalance transfer the
        scale campaign accounts in bytes. Repair cost mirrors
        :meth:`join`: fingers that pointed at the departed node are
        redirected to its heir, and its r predecessors' successor lists
        are recomputed.

        Returns:
            ``(pointer_updates, records_moved)``.

        Raises:
            KeyError: unknown name.
            ValueError: removing the last node.
        """
        node = self._by_name[name]
        if len(self.nodes) == 1:
            raise ValueError("cannot remove the last node of a Chord ring")
        index = self._index_of(node)
        pred_id = self.nodes[(index - 1) % len(self.nodes)].node_id
        self.nodes.pop(index)
        self._ids.pop(index)
        del self._by_name[name]
        if node.up:
            self.live_count -= 1
        node._ring = None  # type: ignore[attr-defined]
        self.version += 1
        self._lookup_memo.clear()
        # Hand the departed node's records to the new owner of its range.
        heir = self._successor_of(node.node_id)
        moved = 0
        for key, records in node.store.items():
            for record in records:
                heir.put_local(key, record)
                moved += 1
        node.store.clear()
        ops = self._repair_after_leave(node, pred_id, heir, index)
        self.repair_ops += ops
        obs.counter_inc("ring_repair_ops_total", ops)
        return ops, moved

    def _repair_after_leave(
        self, node: ChordNode, pred_id: int, heir: ChordNode, index: int
    ) -> int:
        count = len(self.nodes)
        ops = 0
        if count == 1:
            solo = self.nodes[0]
            solo.successors = [solo] * self.r
            solo.finger = [solo] * ID_BITS
            return self.r + ID_BITS
        # Fingers that pointed at the departed node now belong to its heir
        # (the first survivor at/after its id). Same interval algebra as
        # join, over the departed node's old ownership gap.
        for bit in range(ID_BITS):
            span = 1 << bit
            for peer in self._nodes_between(pred_id - span, node.node_id - span):
                if peer.finger[bit] is node:
                    peer.finger[bit] = heir
                    ops += 1
        # Successor lists that listed the departed node: its r predecessors
        # (``index`` is where it sat, so they occupy index-1, index-2, ...).
        for offset in range(1, min(self.r, count) + 1):
            pred_index = (index - offset) % count
            pred = self.nodes[pred_index]
            pred.successors = [
                self.nodes[(pred_index + step) % count]
                for step in range(1, self.r + 1)
            ]
            ops += self.r
        return ops

    def set_up(self, name: str, up: bool) -> None:
        """Flip a node's liveness (fail/recover churn events).

        Routing tables are untouched — lookups skip down nodes via
        successor lists — but the liveness-epoch bump invalidates memoized
        lookups that might route through the flipped node.

        Raises:
            KeyError: unknown name.
        """
        self._by_name[name].up = up

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def lookup(self, key: int, start: ChordNode | None = None) -> LookupResult:
        """Iteratively route to the key's owner, counting hops.

        Down nodes are skipped via successor lists (a hop each), matching
        Chord's failure handling. Results are memoized per
        ``(key, start)`` and invalidated by membership version or liveness
        epoch changes; a memo hit replays the logical lookup/hop telemetry
        so hop histograms are cache-independent.

        Raises:
            ChordLookupError: no live node can own the key (the whole ring
                is down), or routing failed to converge.
        """
        key %= ID_SPACE
        current = start if start is not None else self.nodes[0]
        memo_key = (key, current.name)
        cached = self._lookup_memo.get(memo_key)
        if cached is not None:
            version, epoch, result = cached
            if version == self.version and epoch == self.liveness_epoch:
                obs.counter_inc("chord_lookups_total")
                obs.observe("chord_lookup_hops", result.hops)
                return result
        if self.live_count <= 0:
            raise ChordLookupError("chord lookup failed: no live nodes in the ring")
        hops = 0
        path = [current.name]
        for _ in range(4 * ID_BITS):  # generous loop bound; routing always converges
            successor = self._live_successor(current)
            if in_interval(key, current.node_id, successor.node_id, inclusive_high=True):
                obs.counter_inc("chord_lookups_total")
                obs.observe("chord_lookup_hops", hops + 1)
                result = LookupResult(owner=successor, hops=hops + 1, path=tuple(path))
                if len(self._lookup_memo) >= LOOKUP_MEMO_MAX:
                    self._lookup_memo.clear()
                self._lookup_memo[memo_key] = (self.version, self.liveness_epoch, result)
                return result
            nxt = self._closest_preceding(current, key)
            if nxt is current:
                nxt = successor
            current = nxt
            hops += 1
            path.append(current.name)
        raise ChordLookupError("chord lookup failed to converge")  # pragma: no cover

    def _live_successor(self, node: ChordNode) -> ChordNode:
        for successor in node.successors:
            if successor.up:
                return successor
        # With every listed successor down, walk the sorted ring from the
        # node's position until a live peer appears (expected O(1/avail)
        # steps; the position probe is a bisect, not a scan).
        index = self._index_of(node)
        for offset in range(1, len(self.nodes)):
            candidate = self.nodes[(index + offset) % len(self.nodes)]
            if candidate.up:
                return candidate
        return node

    def _closest_preceding(self, node: ChordNode, key: int) -> ChordNode:
        for finger in reversed(node.finger):
            if finger.up and in_interval(finger.node_id, node.node_id, key):
                return finger
        return node

    # ------------------------------------------------------------------
    # Replicated storage
    # ------------------------------------------------------------------
    def replica_set(self, key: int) -> list[ChordNode]:
        """The key's owner plus its ``r - 1`` immediate live successors."""
        owner = self.lookup(key).owner
        replicas = [owner]
        for successor in owner.successors:
            if len(replicas) >= self.r:
                break
            if successor not in replicas:
                replicas.append(successor)
        return replicas[: self.r]

    def put(self, key: int, value: object) -> int:
        """Store a record on the key's replica set; returns replicas written."""
        written = 0
        for node in self.replica_set(key):
            if node.up:
                node.put_local(key, value)
                written += 1
        obs.counter_inc("chord_puts_total")
        return written

    def get(self, key: int) -> list[object]:
        """Query all replicas and merge results (honest-majority style)."""
        obs.counter_inc("chord_gets_total")
        found: list[object] = []
        for node in self.replica_set(key):
            if node.up:
                for record in node.get_local(key):
                    if record not in found:
                        found.append(record)
        return found

    # ------------------------------------------------------------------
    # Adversary control
    # ------------------------------------------------------------------
    def compromise_fraction(self, fraction: float, rng) -> list[ChordNode]:
        """Mark a random fraction of nodes malicious; returns them."""
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        count = round(fraction * len(self.nodes))
        chosen = rng.sample(self.nodes, count)
        for node in chosen:
            node.malicious = True
        return chosen

    def node_by_name(self, name: str) -> ChordNode:
        """Look up a participant by name (O(1) via the name index).

        Raises:
            KeyError: unknown name.
        """
        return self._by_name[name]


__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "LOOKUP_MEMO_MAX",
    "chord_id",
    "in_interval",
    "ChordLookupError",
    "ChordNode",
    "ChordRing",
    "LookupResult",
]
