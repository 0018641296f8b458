"""Witness-range assignment (Section 4, "Witness Motivation and Assignment").

The broker partitions the hash space ``[0, 2^k)`` among the participating
merchants, weighting each merchant's slice by its witness-service
performance, and publishes a signed entry
``Sig_B(version, {I_M, r_{M,1}, r_{M,2}})`` per merchant. A coin's witness
is the merchant whose range contains ``h(bare coin)`` — the broker cannot
know it (the bare coin is blind) and the client cannot choose it (the bare
coin contains the broker's unforgeable signature).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from repro import perf
from repro.core.exceptions import WrongWitnessError
from repro.core.params import SystemParams
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, verify as schnorr_verify
from repro.crypto.serialize import WireFields, as_int, as_text, pack_batch, split_batch


@dataclass(frozen=True)
class WitnessRange:
    """A half-open slice ``[low, high)`` of the witness hash space."""

    merchant_id: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low < self.high:
            raise ValueError("witness range must be non-empty with low >= 0")

    def contains(self, digest: int) -> bool:
        """True iff ``digest`` falls inside this range."""
        return self.low <= digest < self.high

    @property
    def width(self) -> int:
        """Number of hash values the range covers."""
        return self.high - self.low

    def hash_parts(self) -> tuple[str | int, ...]:
        """Canonical tuple signed by the broker."""
        return ("witness-range", self.merchant_id, self.low, self.high)


@dataclass(frozen=True)
class SignedWitnessEntry:
    """One published line of the witness list: a range plus ``Sig_B``."""

    version: int
    range: WitnessRange
    signature: SchnorrSignature

    @property
    def merchant_id(self) -> str:
        """The witness merchant's identifier ``I_M``."""
        return self.range.merchant_id

    def signed_parts(self) -> tuple[str | int, ...]:
        """The message tuple the broker signs."""
        return ("witness-entry", self.version, *self.range.hash_parts())

    def verify(self, params: SystemParams, broker_sign_public: int) -> bool:
        """Verify the broker's signature on this entry (one ``Ver``).

        The same entry travels with every coin assigned to its merchant,
        so the verdict is memoized per entry (a frozen, hashable value)
        and broker key; a cache hit replays the logical ``Ver`` event.
        """
        return perf.verify_memo(
            "witness-entry",
            (self, params.group.p, broker_sign_public),
            lambda: schnorr_verify(
                params.group, broker_sign_public, self.signature, *self.signed_parts()
            ),
            ver=1,
        )

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = frozenset(
        {"version", "merchant_id", "low", "high", "sig_e", "sig_s"}
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer (attached to every full coin)."""
        return {
            "version": self.version,
            "merchant_id": self.range.merchant_id,
            "low": self.range.low,
            "high": self.range.high,
            "sig_e": self.signature.e,
            "sig_s": self.signature.s,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "SignedWitnessEntry":
        """Parse :meth:`to_wire` fields, read from under ``prefix``."""
        return cls(
            version=as_int(fields[prefix + "version"]),
            range=WitnessRange(
                merchant_id=as_text(fields[prefix + "merchant_id"]),
                low=as_int(fields[prefix + "low"]),
                high=as_int(fields[prefix + "high"]),
            ),
            signature=SchnorrSignature(
                e=as_int(fields[prefix + "sig_e"]), s=as_int(fields[prefix + "sig_s"])
            ),
        )


@dataclass(frozen=True)
class WitnessAssignmentTable:
    """A complete signed partition of the hash space for one list version."""

    version: int
    entries: tuple[SignedWitnessEntry, ...]
    space: int

    def __post_init__(self) -> None:
        self.validate_partition()

    def validate_partition(self) -> None:
        """Check the ranges are disjoint and cover ``[0, space)`` exactly.

        Raises:
            ValueError: if the partition has a gap, an overlap, or strays
                outside the hash space.
        """
        ordered = sorted(self.entries, key=lambda entry: entry.range.low)
        cursor = 0
        for entry in ordered:
            if entry.version != self.version:
                raise ValueError("entry version does not match table version")
            if entry.range.low != cursor:
                raise ValueError(
                    f"partition gap/overlap at {cursor}: next range starts at {entry.range.low}"
                )
            cursor = entry.range.high
        if cursor != self.space:
            raise ValueError(f"partition covers [0, {cursor}) instead of [0, {self.space})")

    @property
    def merchant_ids(self) -> tuple[str, ...]:
        """All participating witness merchants."""
        return tuple(entry.merchant_id for entry in self.entries)

    def witness_for(self, digest: int) -> SignedWitnessEntry:
        """Return the entry whose range contains ``digest``.

        O(log n) over a lazily cached sorted view — brokers and witnesses
        call this on every coin.

        Raises:
            WrongWitnessError: if the digest is outside the hash space.
        """
        if not 0 <= digest < self.space:
            raise WrongWitnessError(f"digest {digest} outside witness hash space")
        ordered, lows = self._sorted_view()
        index = bisect.bisect_right(lows, digest) - 1
        entry = ordered[index]
        if not entry.range.contains(digest):  # pragma: no cover - partition is validated
            raise WrongWitnessError("validated partition failed lookup")
        return entry

    def _sorted_view(self) -> tuple[tuple[SignedWitnessEntry, ...], list[int]]:
        """Entries sorted by range start, cached (the table is frozen)."""
        cached = getattr(self, "_view_cache", None)
        if cached is None:
            ordered = tuple(sorted(self.entries, key=lambda entry: entry.range.low))
            cached = (ordered, [entry.range.low for entry in ordered])
            object.__setattr__(self, "_view_cache", cached)
        return cached

    def entry_for_merchant(self, merchant_id: str) -> SignedWitnessEntry:
        """Return the entry assigned to ``merchant_id``.

        Raises:
            WrongWitnessError: if the merchant is not in this list version.
        """
        for entry in self.entries:
            if entry.merchant_id == merchant_id:
                return entry
        raise WrongWitnessError(f"merchant {merchant_id!r} not in witness list v{self.version}")

    def selection_probability(self, merchant_id: str) -> float:
        """Probability a uniformly random coin is assigned to ``merchant_id``."""
        return self.entry_for_merchant(merchant_id).range.width / self.space

    def to_record(self) -> dict[str, object]:
        """The table as stored at rest: each entry in its wire form."""
        return {
            "version": self.version,
            "space": self.space,
            "entries": pack_batch("e", [entry.to_wire() for entry in self.entries]),
        }

    @classmethod
    def from_record(cls, fields: WireFields, prefix: str = "") -> "WitnessAssignmentTable":
        """Parse :meth:`to_record` fields, read from under ``prefix``.

        Raises:
            ValueError: the entries do not partition ``[0, space)``.
        """
        return cls(
            version=as_int(fields[prefix + "version"]),
            entries=tuple(
                SignedWitnessEntry.from_wire(entry)
                for _, entry in split_batch(fields, prefix + "entries", "e")
            ),
            space=as_int(fields[prefix + "space"]),
        )


def allocate_ranges(
    weights: Mapping[str, float],
    space: int,
) -> list[WitnessRange]:
    """Split ``[0, space)`` into contiguous ranges proportional to weights.

    Merchants with larger weights (better witness performance, per the
    paper's incentive scheme) receive proportionally larger ranges. The
    largest-remainder method distributes rounding leftovers so the ranges
    tile the space exactly.

    Args:
        weights: positive weight per merchant id.
        space: total size of the hash space.

    Raises:
        ValueError: on empty input or non-positive weights.
    """
    if not weights:
        raise ValueError("cannot allocate ranges for an empty merchant set")
    if any(weight <= 0 for weight in weights.values()):
        raise ValueError("witness weights must be positive")
    # The hash space is astronomically large (2^256), so all apportionment
    # arithmetic must be exact integer math: floats cannot even represent
    # the space size. Weights are fixed-point scaled to 10^9.
    scale = 10**9
    ordered_ids = sorted(weights)
    quotas = {mid: max(1, round(weights[mid] * scale)) for mid in ordered_ids}
    total = sum(quotas.values())
    floors = {mid: space * quotas[mid] // total for mid in ordered_ids}
    remainders = {mid: space * quotas[mid] - floors[mid] * total for mid in ordered_ids}
    leftover = space - sum(floors.values())
    by_remainder = sorted(ordered_ids, key=lambda mid: (-remainders[mid], mid))
    for mid in by_remainder[:leftover]:
        floors[mid] += 1
    ranges: list[WitnessRange] = []
    cursor = 0
    for mid in ordered_ids:
        width = floors[mid]
        if width == 0:
            raise ValueError(
                f"merchant {mid!r} would receive an empty witness range; "
                "increase the hash space or its weight"
            )
        ranges.append(WitnessRange(merchant_id=mid, low=cursor, high=cursor + width))
        cursor += width
    return ranges


def build_table(
    params: SystemParams,
    signer: SchnorrKeyPair,
    version: int,
    weights: Mapping[str, float],
    rng: random.Random | None = None,
) -> WitnessAssignmentTable:
    """Build and sign a witness assignment table (broker-side).

    Signing each entry is one ``Sig`` per merchant; table publication is a
    maintenance operation outside the per-transaction cost model, so the
    caller (the broker) invokes this outside any active counter, and its
    uses of ``g`` build no fixed-base table.
    """
    ranges = allocate_ranges(weights, params.witness_hash_space)
    entries = []
    with perf.untabled():
        for witness_range in ranges:
            unsigned = SignedWitnessEntry(
                version=version,
                range=witness_range,
                signature=SchnorrSignature(e=0, s=0),
            )
            signature = signer.sign(*unsigned.signed_parts(), rng=rng)
            entries.append(
                SignedWitnessEntry(version=version, range=witness_range, signature=signature)
            )
    return WitnessAssignmentTable(
        version=version, entries=tuple(entries), space=params.witness_hash_space
    )


def merge_weights(
    previous: Mapping[str, float],
    performance: Mapping[str, float],
    smoothing: float = 0.5,
) -> dict[str, float]:
    """Blend old weights with observed witness performance.

    The paper leaves the broker's exact incentive policy out of scope but
    requires that *"the merchants that should be assigned more coins will
    be assigned larger witness ranges"*. Exponential smoothing is a simple
    concrete policy the benchmarks and examples can use.
    """
    if not 0 <= smoothing <= 1:
        raise ValueError("smoothing must lie in [0, 1]")
    merged: dict[str, float] = {}
    for mid in set(previous) | set(performance):
        old = previous.get(mid, 0.0)
        new = performance.get(mid, 0.0)
        value = (1 - smoothing) * old + smoothing * new
        if value > 0:
            merged[mid] = value
    return merged


__all__ = [
    "WitnessRange",
    "SignedWitnessEntry",
    "WitnessAssignmentTable",
    "allocate_ranges",
    "build_table",
    "merge_weights",
]


def verify_entry_matches(
    params: SystemParams,
    broker_sign_public: int,
    entry: SignedWitnessEntry,
    digest: int,
    expected_version: int,
) -> None:
    """Full verification of a coin's attached witness entry.

    Checks that the entry's version matches the coin's ``info``, that the
    broker's signature verifies (one ``Ver``), and that ``digest`` falls in
    the entry's range. Used identically by merchants, witnesses and the
    arbiter — requirement 3 of the withdrawal protocol: *"anyone should be
    able to correctly determine if a given merchant is indeed a witness of
    a given coin from the coin itself"*.

    Raises:
        WrongWitnessError: on any mismatch.
    """
    if entry.version != expected_version:
        raise WrongWitnessError(
            f"witness entry version {entry.version} != coin list version {expected_version}"
        )
    if not entry.verify(params, broker_sign_public):
        raise WrongWitnessError("broker signature on witness entry failed to verify")
    if not entry.range.contains(digest):
        raise WrongWitnessError("coin digest falls outside the attached witness range")


def iter_ranges(entries: Iterable[SignedWitnessEntry]) -> list[WitnessRange]:
    """Convenience: extract the raw ranges from signed entries."""
    return [entry.range for entry in entries]
