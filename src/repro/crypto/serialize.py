"""URI-style serialization of protocol state.

Section 7 of the paper describes a (mostly) stateless REST design: *"All
state is encoded as universal resource identifiers (URIs) and transferred
along with the transaction request"*, and notes that *"compression and/or
base64 data encoding can be used if greater communication efficiency is
required"*. This module implements exactly that wire format:

* every protocol message is a flat mapping of dotted string keys to
  values, URL-encoded into a query string whose byte length is what the
  Table 2 bandwidth benchmark measures;
* integers travel as unpadded URL-safe base64 of their big-endian bytes
  (the paper's base64 option);
* the verbose dotted key segments (``transcript.coin.bare.sig.rho`` ...)
  are abbreviated through a fixed reversible dictionary (the paper's
  compression option) before hitting the wire.
"""

from __future__ import annotations

import base64
from collections.abc import Mapping, Sequence
from urllib.parse import parse_qsl, quote, urlencode

WireValue = int | str
WireMapping = dict[str, WireValue]

#: Fixed key-segment abbreviation dictionary (the transport "compression").
#: Applied segment-wise to dotted keys on encode, reversed on decode;
#: unknown segments pass through unchanged.
KEY_ABBREVIATIONS: dict[str, str] = {
    "transcript": "t",
    "commitment": "c",
    "coin": "n",
    "bare": "b",
    "witness": "w",
    "sig": "g",
    "info": "i",
    "denomination": "d",
    "list_version": "v",
    "soft_expiry": "se",
    "hard_expiry": "he",
    "merchant_id": "m",
    "timestamp": "ts",
    "salt": "sa",
    "coin_hash": "ch",
    "nonce": "no",
    "v_hash": "vh",
    "expires_at": "x",
    "witness_id": "wi",
    "version": "ve",
    "low": "lo",
    "high": "hi",
    "sig_e": "e",
    "sig_s": "s",
    "wsig_e": "we",
    "wsig_s": "ws",
    "signed": "sn",
    "ticket": "tk",
    "rho": "r",
    "omega": "o",
    "sigma": "sg",
    "delta": "dl",
    "proof": "p",
    "status": "st",
    "outcome": "oc",
    "amount": "am",
    "proof_ts": "pt",
}
_EXPANSIONS = {short: long for long, short in KEY_ABBREVIATIONS.items()}
if len(_EXPANSIONS) != len(KEY_ABBREVIATIONS):  # pragma: no cover - static sanity
    raise RuntimeError("key abbreviation dictionary is not reversible")


def int_to_text(value: int) -> str:
    """Encode a non-negative integer as unpadded URL-safe base64."""
    if value < 0:
        raise ValueError("wire integers must be non-negative")
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def text_to_int(text: str) -> int:
    """Decode :func:`int_to_text` output.

    Raises:
        ValueError: on empty or malformed input.
    """
    if not text:
        raise ValueError("empty integer field")
    padding = "=" * (-len(text) % 4)
    try:
        raw = base64.urlsafe_b64decode((text + padding).encode("ascii"))
    except Exception as error:
        raise ValueError(f"malformed wire integer {text!r}") from error
    # b64decode silently skips characters outside the alphabet unless told
    # to validate; malformed protocol fields must be loud.
    if base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=") != text.rstrip("="):
        raise ValueError(f"malformed wire integer {text!r}")
    return int.from_bytes(raw, "big")


def abbreviate_key(dotted: str) -> str:
    """Compress a dotted key through the abbreviation dictionary."""
    return ".".join(KEY_ABBREVIATIONS.get(part, part) for part in dotted.split("."))


def expand_key(dotted: str) -> str:
    """Reverse :func:`abbreviate_key`."""
    return ".".join(_EXPANSIONS.get(part, part) for part in dotted.split("."))


def flatten(mapping: dict[str, object], prefix: str = "") -> WireMapping:
    """Flatten nested dictionaries into dotted keys.

    Raises:
        TypeError: if a leaf value is neither ``int`` nor ``str``.
    """
    out: WireMapping = {}
    for key, value in mapping.items():
        if "." in key or "=" in key or "&" in key:
            raise ValueError(f"illegal character in wire key {key!r}")
        full_key = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(flatten(value, full_key))
        elif isinstance(value, bool):
            raise TypeError("booleans are not wire values; encode as int 0/1")
        elif isinstance(value, (int, str)):
            out[full_key] = value
        else:
            raise TypeError(
                f"cannot serialize {type(value).__name__} at key {full_key!r}"
            )
    return out


def encode(mapping: dict[str, object]) -> str:
    """URL-encode a (possibly nested) mapping into a query string.

    Keys are abbreviated and sorted so encoding is deterministic — two
    parties serializing the same logical message produce byte-identical
    strings, which the signature checks rely on.
    """
    flat = flatten(mapping)
    items: list[tuple[str, str]] = []
    for key in sorted(flat):
        value = flat[key]
        text = int_to_text(value) if isinstance(value, int) else value
        items.append((abbreviate_key(key), text))
    return urlencode(items, quote_via=quote)


def decode(wire: str) -> dict[str, str]:
    """Decode a query string into a flat ``{dotted_key: text}`` mapping.

    Keys are expanded back to their long forms.

    Raises:
        ValueError: on duplicate keys (a malformed or maliciously crafted
            message).
    """
    out: dict[str, str] = {}
    for key, value in parse_qsl(wire, keep_blank_values=True):
        expanded = expand_key(key)
        if expanded in out:
            raise ValueError(f"duplicate wire key {expanded!r}")
        out[expanded] = value
    return out


def unflatten(flat: dict[str, str]) -> dict[str, object]:
    """Rebuild the nested structure from dotted keys."""
    out: dict[str, object] = {}
    for dotted, value in flat.items():
        parts = dotted.split(".")
        node = out
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ValueError(f"wire key {dotted!r} conflicts with a scalar field")
            node = child
        if parts[-1] in node:
            raise ValueError(f"wire key {dotted!r} conflicts with a nested field")
        node[parts[-1]] = value
    return out


def wire_bytes(mapping: dict[str, object]) -> int:
    """Return the on-the-wire size (bytes) of an encoded mapping.

    This is the quantity behind the "bytes transmitted" column of Table 2.
    """
    return len(encode(mapping).encode("ascii"))


def pack_batch(
    prefix: str, items: Sequence[dict[str, object]]
) -> dict[str, dict[str, object]]:
    """Frame a sequence of wire mappings as ``{f"{prefix}{i}": item}``.

    The batched RPCs (``withdraw/batch-begin``, ``deposit/batch``) carry
    their per-item payloads under indexed keys inside one message; this
    is the single place that index scheme is defined.
    :func:`split_batch` is its receiving half.
    """
    return {f"{prefix}{index}": dict(item) for index, item in enumerate(items)}


def split_batch(
    flat: Mapping[str, WireValue], group: str, prefix: str
) -> list[tuple[int, dict[str, str]]]:
    """Recover the items of a :func:`pack_batch` group in one pass.

    Args:
        flat: a flattened (dotted-key) message mapping.
        group: the field the batch was nested under (e.g. ``"batch"``).
        prefix: the per-item key prefix (e.g. ``"t"``).

    Returns:
        ``(index, fields)`` per item, sorted by index: the item's keys
        with the ``{group}.{prefix}N.`` lead removed and its values as
        wire text (what ``from_wire`` takes). Keys whose index is not
        numeric are ignored.
    """
    lead = f"{group}.{prefix}"
    items: dict[int, dict[str, str]] = {}
    for key, value in flat.items():
        if not key.startswith(lead):
            continue
        head, _, field = key[len(lead):].partition(".")
        if head.isdigit() and field:
            items.setdefault(int(head), {})[field] = (
                int_to_text(value) if isinstance(value, int) else value
            )
    return sorted(items.items())


__all__ = [
    "KEY_ABBREVIATIONS",
    "abbreviate_key",
    "decode",
    "encode",
    "expand_key",
    "flatten",
    "int_to_text",
    "pack_batch",
    "split_batch",
    "text_to_int",
    "unflatten",
    "wire_bytes",
]
