"""Frame bodies: the sim's wire format carried over TCP, parsed in one pass.

Request bodies are exactly ``Message(method, payload).encoded()``,
response bodies ``Message(method + "/ok", payload).encoded()`` and error
bodies the ``{"_error", "detail"}`` mapping behind
:func:`~repro.net.transport.error_size_bytes` — so a daemon message and
its simulated twin are the same ASCII string, and
``len(body) + HTTP_FRAMING_BYTES`` is the same number on both backends.

Errors travel as a type name plus detail text and are rebuilt into the
matching :class:`~repro.core.exceptions.EcashError` subclass on the
client, so remote refusals raise the very exceptions local calls raise.
Byte accounting for an error is computed from the wire fields alone —
never from the reconstructed object — so an unknown type name cannot
skew the books.

A body is decoded once, into the flat mapping its keys spell, and handed
on as a :class:`~repro.crypto.serialize.Fields` view: callers read it as
the nested payload (``reply["r0"]["outcome"]``), handlers ``flatten`` it
for free. No nested dictionary is built in between.
"""

from __future__ import annotations

import inspect

from repro.core import exceptions as _exceptions
from repro.core.exceptions import EcashError
from repro.crypto.serialize import Fields, decode, encode, nested
from repro.net.transport import HTTP_FRAMING_BYTES, Message


class RemoteProtocolError(EcashError):
    """A remote failure with no matching local exception type.

    Carries the peer's reported type name and detail text; raised when
    the error registry cannot map ``_error`` to a concrete class (a
    newer peer, or a non-:class:`EcashError` handler bug).
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _error_registry() -> dict[str, type[EcashError]]:
    registry: dict[str, type[EcashError]] = {}
    for _, obj in inspect.getmembers(_exceptions, inspect.isclass):
        if issubclass(obj, EcashError):
            registry[obj.__name__] = obj
    return registry


#: ``type name -> EcashError subclass``, for rebuilding remote errors.
ERROR_TYPES: dict[str, type[EcashError]] = _error_registry()

#: Exception types whose constructor takes a structured proof, not a
#: message string. They never travel as ``_error`` frames — the witness
#: returns refusals as ordinary payloads carrying the proof — so if one
#: *does* arrive as an error it is rebuilt as the generic
#: :class:`RemoteProtocolError` rather than a proofless impostor.
PROOF_CARRYING = frozenset({"DoubleSpendError", "RenewalRefusedError"})


def request_body(method: str, payload: dict[str, object]) -> bytes:
    """The request frame body for ``method``/``payload``."""
    return Message(method=method, payload=payload).encoded().encode("ascii")


def response_body(method: str, payload: dict[str, object]) -> bytes:
    """The response frame body (``method/ok`` plus the reply payload)."""
    return Message(method=method + "/ok", payload=payload).encoded().encode("ascii")


def error_body(error: BaseException) -> bytes:
    """The error frame body: type name plus detail text."""
    return encode({"_error": type(error).__name__, "detail": str(error)}).encode(
        "ascii"
    )


def message_size(body: bytes) -> int:
    """On-the-wire size of a frame for byte accounting.

    ``len(body)`` plus the fixed envelope overhead — the daemon's binary
    header stands in for the HTTP headers the sim charges, so both use
    :data:`~repro.net.transport.HTTP_FRAMING_BYTES`.
    """
    return len(body) + HTTP_FRAMING_BYTES


def parse_request(body: bytes) -> tuple[str, Fields]:
    """Decode a request body into ``(method, nested payload)``.

    Raises:
        ValueError: no ``_method`` field, undecodable body, a key that
            is both scalar and nested, or a payload smuggling reserved
            fields.
    """
    flat = decode(body.decode("ascii"))
    method = flat.pop("_method", None)
    if method is None:
        raise ValueError("request body lacks a _method field")
    if "_error" in flat:
        raise ValueError("request body carries a reserved _error field")
    return method, nested(flat)


def parse_response(body: bytes) -> Fields:
    """Decode a response body into the nested reply payload."""
    flat = decode(body.decode("ascii"))
    flat.pop("_method", None)
    return nested(flat)


def parse_error(body: bytes) -> EcashError:
    """Rebuild the typed exception described by an error body."""
    flat = decode(body.decode("ascii"))
    kind = flat.get("_error", "EcashError")
    detail = flat.get("detail", "")
    cls = ERROR_TYPES.get(kind)
    if cls is None or kind in PROOF_CARRYING:
        return RemoteProtocolError(kind, detail)
    return cls(detail)


__all__ = [
    "ERROR_TYPES",
    "PROOF_CARRYING",
    "RemoteProtocolError",
    "error_body",
    "message_size",
    "parse_error",
    "parse_request",
    "parse_response",
    "request_body",
    "response_body",
]
