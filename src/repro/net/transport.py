"""Wire messages in the paper's URI format, with byte accounting.

Every RPC payload is a (possibly nested) mapping of ints and strings; its
on-the-wire representation is the URL-encoded query string of
:mod:`repro.crypto.serialize`, and the byte counts Table 2 reports are the
lengths of those strings — the same methodology as the paper's
URL-encoded REST transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.serialize import encode, wire_bytes

#: Fixed per-message transport framing, in bytes. The paper's parties are
#: web services: each logical message rides an HTTP request/response whose
#: request line, Host, Content-Type and Content-Length headers add a
#: roughly constant overhead on top of the URL-encoded body.
HTTP_FRAMING_BYTES = 180

#: Body fields owned by the transport envelope, never by payloads: the
#: request's method marker and the error-response marker. A payload that
#: smuggled either key in would be ambiguous on decode (and lets a client
#: forge error frames), so :class:`Message` rejects them at construction.
RESERVED_FIELDS = frozenset({"_method", "_error"})


@dataclass(frozen=True)
class Message:
    """One protocol message: a method name plus a payload mapping."""

    method: str
    payload: dict[str, object]

    def __post_init__(self) -> None:
        colliding = RESERVED_FIELDS.intersection(self.payload)
        if colliding:
            raise ValueError(
                "payload keys collide with reserved transport fields: "
                + ", ".join(sorted(colliding))
            )

    def encoded(self) -> str:
        """The URL-encoded wire form (method travels as a field)."""
        return encode({"_method": self.method, **self.payload})

    @property
    def body_bytes(self) -> int:
        """Size of the URL-encoded body alone (the encoding is ASCII)."""
        return len(self.encoded())

    @property
    def size_bytes(self) -> int:
        """On-the-wire size: body plus HTTP framing."""
        return self.body_bytes + HTTP_FRAMING_BYTES


def error_size_bytes(error: BaseException) -> int:
    """Wire size of an error response (status line + message + framing)."""
    return (
        wire_bytes({"_error": type(error).__name__, "detail": str(error)})
        + HTTP_FRAMING_BYTES
    )


@dataclass
class TrafficMeter:
    """Per-node transmit/receive accounting."""

    sent_bytes: int = 0
    received_bytes: int = 0
    messages_sent: int = 0
    messages_received: int = 0

    def record_sent(self, size: int) -> None:
        """Account one outgoing message."""
        self.sent_bytes += size
        self.messages_sent += 1

    def record_received(self, size: int) -> None:
        """Account one incoming message."""
        self.received_bytes += size
        self.messages_received += 1

    def snapshot(self) -> tuple[int, int]:
        """``(sent_bytes, received_bytes)``."""
        return (self.sent_bytes, self.received_bytes)


@dataclass(frozen=True)
class TraceEntry:
    """One line of the network trace (used by the Figure 1 benchmark)."""

    time: float
    source: str
    destination: str
    method: str
    size_bytes: int
    kind: str  # "request" | "response" | "error"


@dataclass
class Trace:
    """An append-only log of every message the network carried."""

    entries: list[TraceEntry] = field(default_factory=list)

    def record(self, entry: TraceEntry) -> None:
        """Append one entry."""
        self.entries.append(entry)

    def methods(self) -> list[str]:
        """The request-method sequence, in delivery order."""
        return [e.method for e in self.entries if e.kind == "request"]

    def between(self, source: str, destination: str) -> list[TraceEntry]:
        """Entries from ``source`` to ``destination``."""
        return [
            e for e in self.entries if e.source == source and e.destination == destination
        ]


__all__ = [
    "Message",
    "RESERVED_FIELDS",
    "Trace",
    "TraceEntry",
    "TrafficMeter",
    "error_size_bytes",
]
