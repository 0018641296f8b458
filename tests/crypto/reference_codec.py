"""Earlier wire codecs of this repository, kept as test oracles.

``encode``/``decode``/``flatten``/``unflatten``/``text_to_int`` (and the
helpers they call) are the bodies ``repro.crypto.serialize`` had before
the single-pass rewrite, verbatim: ``urlencode``/``parse_qsl`` do the
quoting and splitting, every pass is a separate loop. Nothing under
``src/`` imports this module; ``test_codec_differential.py`` holds the
live codec to it byte for byte.

One deliberate divergence in the live code: this ``text_to_int`` accepts
padded and zero-prefixed spellings (``"AQ=="``, ``"AAE"``) that
``int_to_text`` never emits; the live one refuses them.

``canonical_text_to_int``, ``quote_value`` and ``unquote_value`` are the
single-pass codec's per-value steps before values were memoized and
integers decoded in one pass: a regex, two ``str.replace`` and
``a2b_base64`` for an integer, and urllib's ``quote``/``unquote`` on
every string value of every message. The live codec must accept exactly
the integer spellings ``canonical_text_to_int`` accepts, and emit and
read back exactly the text these two give.
"""

from __future__ import annotations

import base64
import re
from binascii import a2b_base64
from urllib.parse import parse_qsl, quote, unquote, urlencode

from repro.crypto.serialize import KEY_ABBREVIATIONS

WireValue = int | str
WireMapping = dict[str, WireValue]

_EXPANSIONS = {short: long for long, short in KEY_ABBREVIATIONS.items()}


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


# ----------------------------------------------------------------------
# The single-pass codec's per-value steps, before memos and the one-pass
# integer decode
# ----------------------------------------------------------------------
_BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_is_int_text = re.compile(r"[A-Za-z0-9_-]+").fullmatch
_CANONICAL_LAST = (
    frozenset(_BASE64_ALPHABET),
    frozenset(),
    frozenset(_BASE64_ALPHABET[::16]),
    frozenset(_BASE64_ALPHABET[::4]),
)
_PADDING = ("", "", "==", "=")
_is_unreserved = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch


def canonical_text_to_int(text: str) -> int:
    """Decode :func:`int_to_text` output, and nothing else.

    Raises:
        ValueError: on empty or malformed input.
    """
    if not text:
        raise ValueError("empty integer field")
    tail = len(text) % 4
    if _is_int_text(text) is None or text[-1] not in _CANONICAL_LAST[tail]:
        raise ValueError(f"malformed wire integer {text!r}")
    raw = a2b_base64(text.replace("-", "+").replace("_", "/") + _PADDING[tail])
    if raw[0] == 0 and len(raw) > 1:
        raise ValueError(f"malformed wire integer {text!r}")
    return int.from_bytes(raw, "big")


def quote_value(value: str) -> str:
    """A string value as ``encode`` wrote it."""
    return value if _is_unreserved(value) else quote(value, safe="")


def unquote_value(token: str) -> str:
    """A received value token as ``decode`` read it."""
    return unquote(token.replace("+", " ")) if "%" in token or "+" in token else token
