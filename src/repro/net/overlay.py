"""The merchant P2P overlay: gossip distribution of the witness list.

Section 3, observation three: *"the merchants themselves can form a
network to combat double-spending"*, and Section 4: *"from time to time,
B may publish a new version of the witness range assignments"*. Every
merchant needs the current signed witness table (to know its own range)
and the directory of merchant keys (to verify commitments and transcript
signatures from other witnesses). The broker must not become a
distribution bottleneck, so merchants gossip:

* the broker seeds a new **directory version** — the signed witness-range
  entries plus the merchant key directory, all covered by one broker
  signature — to a few merchants;
* every merchant runs an anti-entropy loop: periodically pick a random
  peer, exchange version numbers, pull the newer directory;
* a received directory is installed only if its broker signature verifies
  and its version is strictly newer — replayed or fabricated directories
  are dropped on the floor, so Byzantine peers can delay propagation but
  never corrupt it.

Convergence is the classic epidemic O(log N) rounds, measured by the
overlay benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro import obs, perf
from repro.core.exceptions import EcashError
from repro.core.params import SystemParams
from repro.core.witness_ranges import SignedWitnessEntry, WitnessAssignmentTable
from repro.crypto.hashing import HashInput, encode_for_hash
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, verify as schnorr_verify
from repro.crypto.serialize import as_int, flatten, strip_prefix
from repro.net.node import Network
from repro.net.sim import SimTimeoutError, Sleep

#: Cap on the failure-backoff multiplier: a member that keeps failing
#: still probes at least every ``interval * MAX_BACKOFF_FACTOR`` seconds.
MAX_BACKOFF_FACTOR = 8.0


@dataclass(frozen=True)
class Directory:
    """One version of the overlay's shared state, signed by the broker."""

    version: int
    table: WitnessAssignmentTable
    merchant_keys: dict[str, int]
    signature: SchnorrSignature

    def signed_parts(self) -> tuple[HashInput, ...]:
        """The broker-signed digest material."""
        return directory_signed_parts(self.version, self.table, self.merchant_keys)

    def verify(self, params: SystemParams, broker_sign_public: int) -> bool:
        """Check the broker's signature over the whole directory.

        Every overlay member re-verifies the same directory version on
        every gossip install, so the verdict is memoized on a digest of
        the signed material; cache hits replay the logical ``Ver``.
        """
        return perf.verify_memo(
            "overlay-directory",
            (
                "directory",
                params.group.p,
                broker_sign_public,
                encode_for_hash(*self.signed_parts()),
                self.signature.e,
                self.signature.s,
            ),
            lambda: schnorr_verify(
                params.group, broker_sign_public, self.signature, *self.signed_parts()
            ),
            ver=1,
        )


def directory_signed_parts(
    version: int,
    table: WitnessAssignmentTable,
    merchant_keys: dict[str, int],
) -> tuple[HashInput, ...]:
    """Canonical signable tuple for a directory."""
    parts: list[HashInput] = ["overlay-directory", version, table.version]
    for entry in sorted(table.entries, key=lambda e: e.range.low):
        parts.extend(entry.signed_parts())
        parts.extend((entry.signature.e, entry.signature.s))
    for merchant_id in sorted(merchant_keys):
        parts.extend((merchant_id, merchant_keys[merchant_id]))
    return tuple(parts)


def publish_directory(
    params: SystemParams,
    broker_sign_key: SchnorrKeyPair,
    version: int,
    table: WitnessAssignmentTable,
    merchant_keys: dict[str, int],
    rng: random.Random | None = None,
) -> Directory:
    """Broker-side: sign a new directory version."""
    signature = broker_sign_key.sign(
        *directory_signed_parts(version, table, merchant_keys), rng=rng
    )
    return Directory(
        version=version,
        table=table,
        merchant_keys=dict(merchant_keys),
        signature=signature,
    )


@dataclass
class GossipState:
    """One overlay member's view."""

    merchant_id: str
    directory: Directory | None = None
    installs: int = 0
    rejected: int = 0
    peer_failures: int = 0

    @property
    def version(self) -> int:
        """Currently installed version (0 = nothing yet)."""
        return self.directory.version if self.directory else 0


class GossipOverlay:
    """Anti-entropy gossip of signed directories over the simulated network.

    Args:
        params: system parameters.
        network: the RPC fabric (overlay members must be registered nodes).
        broker_sign_public: key that authenticates directories.
        member_ids: overlay membership (merchant node names).
        interval: seconds between a member's gossip rounds.
        fanout: peers contacted per round.
        seed: randomness for peer selection.
    """

    def __init__(
        self,
        params: SystemParams,
        network: Network,
        broker_sign_public: int,
        member_ids: list[str],
        interval: float = 1.0,
        fanout: int = 1,
        seed: int = 0,
    ) -> None:
        if len(set(member_ids)) != len(member_ids) or not member_ids:
            raise ValueError("overlay needs a non-empty set of distinct members")
        self.params = params
        self.network = network
        self.broker_sign_public = broker_sign_public
        self.interval = interval
        self.fanout = fanout
        self.rng = random.Random(seed)
        self.states = {mid: GossipState(merchant_id=mid) for mid in member_ids}
        # Per-member peer lists, precomputed once: membership is fixed for
        # the overlay's lifetime, and rebuilding this list every gossip
        # round is O(n) per member per round — the dominant cost at scale.
        # Order matches the old per-round construction exactly, so the
        # seeded rng.sample stream (and every chaos report) is unchanged.
        self._peers = {
            mid: [m for m in member_ids if m != mid] for mid in member_ids
        }
        self.messages_exchanged = 0
        for merchant_id in member_ids:
            self._register_handlers(merchant_id)

    # ------------------------------------------------------------------
    # Broker seeding and member queries
    # ------------------------------------------------------------------
    def seed(self, directory: Directory, seed_members: list[str]) -> None:
        """Install a freshly published directory at a few members.

        Raises:
            ValueError: the directory does not verify (seeding garbage
                would be a broker bug, not a network event).
        """
        if not directory.verify(self.params, self.broker_sign_public):
            raise ValueError("refusing to seed an unauthenticated directory")
        for merchant_id in seed_members:
            self._install(self.states[merchant_id], directory)

    def version_of(self, merchant_id: str) -> int:
        """The directory version a member currently holds."""
        return self.states[merchant_id].version

    def converged_to(self, version: int) -> bool:
        """True iff every *online* member holds ``version``."""
        return all(
            state.version >= version
            for state in self.states.values()
            if self.network.node(state.merchant_id).up
        )

    # ------------------------------------------------------------------
    # The anti-entropy loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every member's gossip process on the event loop."""
        for merchant_id in self.states:
            self.network.sim.spawn(self._gossip_loop(merchant_id))

    def _gossip_loop(self, merchant_id: str) -> Generator[Any, Any, None]:
        # Staggered start so rounds interleave instead of thundering.
        yield Sleep(self.rng.random() * self.interval)
        state = self.states[merchant_id]
        consecutive_failures = 0
        while True:
            if self.network.node(merchant_id).up:
                round_failed = False
                peers = self._peers[merchant_id]
                for peer in self.rng.sample(peers, min(self.fanout, len(peers))):
                    try:
                        yield from self._exchange(merchant_id, peer)
                    except (SimTimeoutError, EcashError):
                        # Peer down, RPC timed out, or the peer answered
                        # with a protocol error: skip the exchange and let
                        # anti-entropy catch it up later. Anything else
                        # is a bug in *this* member and must surface.
                        round_failed = True
                        state.peer_failures += 1
                        obs.counter_inc("gossip_peer_failures_total")
                consecutive_failures = consecutive_failures + 1 if round_failed else 0
            # Exponential backoff (capped, with deterministic jitter) when
            # every recent round failed — a partitioned member probes less
            # aggressively instead of hammering dead peers.
            factor = min(2.0**consecutive_failures, MAX_BACKOFF_FACTOR)
            jitter = 1.0 + 0.1 * (2.0 * self.rng.random() - 1.0)
            yield Sleep(self.interval * factor * jitter)

    def _exchange(self, source: str, peer: str) -> Generator[Any, Any, None]:
        """One push-pull round: compare versions, ship the newer directory."""
        state = self.states[source]
        reply = yield self.network.rpc(
            source, peer, "overlay/version", {"version": state.version}, timeout=5.0
        )
        self.messages_exchanged += 1
        obs.counter_inc("overlay_messages_total", kind="version")
        peer_version = as_int(reply["version"])
        if peer_version > state.version:
            pulled = yield self.network.rpc(
                source, peer, "overlay/pull", {}, timeout=5.0
            )
            self.messages_exchanged += 1
            obs.counter_inc("overlay_messages_total", kind="pull")
            directory = _directory_from_payload(self.params, pulled)
            self._consider(state, directory)
        elif peer_version < state.version and state.directory is not None:
            yield self.network.rpc(
                source,
                peer,
                "overlay/push",
                _directory_to_payload(state.directory),
                timeout=5.0,
            )
            self.messages_exchanged += 1
            obs.counter_inc("overlay_messages_total", kind="push")

    # ------------------------------------------------------------------
    # Handlers and installation policy
    # ------------------------------------------------------------------
    def _register_handlers(self, merchant_id: str) -> None:
        node = self.network.node(merchant_id)
        state = self.states[merchant_id]

        def version_handler(payload: dict[str, Any]) -> dict[str, Any]:
            return {"version": state.version}

        def pull_handler(payload: dict[str, Any]) -> dict[str, Any]:
            if state.directory is None:
                return {"version": 0}
            return _directory_to_payload(state.directory)

        def push_handler(payload: dict[str, Any]) -> dict[str, Any]:
            directory = _directory_from_payload(self.params, payload)
            self._consider(state, directory)
            return {"version": state.version}

        node.on("overlay/version", version_handler)
        node.on("overlay/pull", pull_handler)
        node.on("overlay/push", push_handler)

    def _consider(self, state: GossipState, directory: Directory | None) -> None:
        """Install iff authentic and strictly newer; count rejections."""
        if directory is None:
            return
        if directory.version <= state.version:
            return
        if not directory.verify(self.params, self.broker_sign_public):
            state.rejected += 1
            obs.counter_inc("overlay_rejections_total")
            return
        self._install(state, directory)

    def _install(self, state: GossipState, directory: Directory) -> None:
        state.directory = directory
        state.installs += 1
        obs.counter_inc("overlay_installs_total")


# ----------------------------------------------------------------------
# Wire marshalling
# ----------------------------------------------------------------------

def directory_to_payload(directory: Directory) -> dict[str, Any]:
    """Public wire form of a directory (used by push/pull and the chaos
    suite's stale-table-broker actor)."""
    return _directory_to_payload(directory)


def _directory_to_payload(directory: Directory) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "version": directory.version,
        "table_version": directory.table.version,
        "space": directory.table.space,
        "sig": {"sig_e": directory.signature.e, "sig_s": directory.signature.s},
        "keys": {mid: key for mid, key in directory.merchant_keys.items()},
    }
    entries: dict[str, Any] = {}
    for index, entry in enumerate(
        sorted(directory.table.entries, key=lambda e: e.range.low)
    ):
        entries[f"n{index}"] = entry.to_wire()
    payload["entries"] = entries
    return payload


def _directory_from_payload(
    params: SystemParams, payload: dict[str, Any]
) -> Directory | None:
    try:
        flat = flatten(payload)
        if as_int(flat.get("version", 0)) == 0:
            return None
        indices = sorted(
            {
                int(key.split(".")[1][1:])
                for key in flat
                if key.startswith("entries.n")
            }
        )
        entries = tuple(
            SignedWitnessEntry.from_wire(flat, f"entries.n{index}.")
            for index in indices
        )
        table = WitnessAssignmentTable(
            version=as_int(flat["table_version"]),
            entries=entries,
            space=as_int(flat["space"]),
        )
        merchant_keys = {
            name: as_int(value) for name, value in strip_prefix(flat, "keys.").items()
        }
        return Directory(
            version=as_int(flat["version"]),
            table=table,
            merchant_keys=merchant_keys,
            signature=SchnorrSignature(
                e=as_int(flat["sig.sig_e"]), s=as_int(flat["sig.sig_s"])
            ),
        )
    except (ValueError, KeyError, TypeError):
        return None


__all__ = [
    "Directory",
    "GossipOverlay",
    "GossipState",
    "directory_signed_parts",
    "directory_to_payload",
    "publish_directory",
]
