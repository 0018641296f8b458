"""The public ``info`` attached to every coin.

Algorithm 1: *"The info contains the value of the coin, the version of
merchant list, and two expiration dates."* The soft expiration date makes a
coin unspendable-but-renewable; the hard date voids it completely
(Section 4, "Coin Renewal").

Timestamps are integer epoch seconds on the (possibly simulated) protocol
clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.crypto.hashing import HashInput
from repro.crypto.serialize import WireFields, as_int, int_to_text


@dataclass(frozen=True, order=True)
class CoinInfo:
    """Public, unblinded coin attributes.

    Attributes:
        denomination: coin value in cents (the paper's "mini-payments" are
            physical-coin-sized, i.e. whole cents up to a few dollars).
        list_version: version number of the witness-range assignment list
            the coin is bound to.
        soft_expiry: epoch seconds after which the coin is unspendable but
            still renewable.
        hard_expiry: epoch seconds after which the coin is void.
    """

    denomination: int
    list_version: int
    soft_expiry: int
    hard_expiry: int

    def __post_init__(self) -> None:
        if self.denomination <= 0:
            raise ValueError("denomination must be positive")
        if self.hard_expiry <= self.soft_expiry:
            raise ValueError("hard expiry must be after soft expiry")
        if self.list_version < 0:
            raise ValueError("list_version must be non-negative")

    def hash_parts(self) -> tuple[HashInput, ...]:
        """Canonical tuple fed to ``F``/``H``/``h`` wherever ``info`` appears."""
        return (
            "info",
            self.denomination,
            self.list_version,
            self.soft_expiry,
            self.hard_expiry,
        )

    def is_spendable(self, now: int) -> bool:
        """True iff the coin may be spent at a merchant at time ``now``."""
        return now < self.soft_expiry

    def is_renewable(self, now: int) -> bool:
        """True iff the coin may still be exchanged for a fresh one.

        The paper allows renewal of coins past the soft date; we also allow
        renewing a not-yet-soft-expired coin (e.g. when its witness proved
        persistently unavailable), which Algorithm 4 does not forbid.
        """
        return now < self.hard_expiry

    def is_void(self, now: int) -> bool:
        """True iff the coin is completely void (past the hard date)."""
        return now >= self.hard_expiry

    #: The keys :meth:`to_wire` writes.
    WIRE_KEYS: ClassVar[frozenset[str]] = frozenset(
        {"denomination", "list_version", "soft_expiry", "hard_expiry"}
    )

    def to_wire(self) -> dict[str, object]:
        """Serialize for URI transfer."""
        return {
            "denomination": self.denomination,
            "list_version": self.list_version,
            "soft_expiry": self.soft_expiry,
            "hard_expiry": self.hard_expiry,
        }

    @classmethod
    def from_wire(cls, fields: WireFields, prefix: str = "") -> "CoinInfo":
        """Parse :meth:`to_wire` fields, read from under ``prefix``."""
        return cls(
            denomination=as_int(fields[prefix + "denomination"]),
            list_version=as_int(fields[prefix + "list_version"]),
            soft_expiry=as_int(fields[prefix + "soft_expiry"]),
            hard_expiry=as_int(fields[prefix + "hard_expiry"]),
        )

    def short_label(self) -> str:
        """Human-readable one-liner for logs and examples."""
        cents = self.denomination
        return f"{cents // 100}.{cents % 100:02d} (list v{self.list_version})"


def standard_info(
    denomination: int,
    list_version: int,
    now: int,
    soft_lifetime: int = 30 * 24 * 3600,
    renewal_window: int = 60 * 24 * 3600,
) -> CoinInfo:
    """Build a :class:`CoinInfo` with conventional expiry windows.

    Defaults: spendable for 30 days, renewable for a further 60.
    """
    return CoinInfo(
        denomination=denomination,
        list_version=list_version,
        soft_expiry=now + soft_lifetime,
        hard_expiry=now + soft_lifetime + renewal_window,
    )


__all__ = ["CoinInfo", "standard_info", "int_to_text"]
