"""URI-style serialization of protocol state, one pass in each direction.

Section 7 of the paper describes a (mostly) stateless REST design: *"All
state is encoded as universal resource identifiers (URIs) and transferred
along with the transaction request"*, and notes that *"compression and/or
base64 data encoding can be used if greater communication efficiency is
required"*. This module implements exactly that wire format:

* every protocol message is a flat mapping of dotted string keys to
  values, URL-encoded into a query string whose byte length is what the
  Table 2 bandwidth benchmark measures;
* integers travel as unpadded URL-safe base64 of their big-endian bytes
  (the paper's base64 option), and each integer has exactly one spelling;
* the verbose dotted key segments (``transcript.coin.bare.sig.rho`` ...)
  are abbreviated through a fixed reversible dictionary (the paper's
  compression option) before hitting the wire.

:func:`encode` walks the nested mapping once and :func:`decode` walks the
string once, and each value is converted once: the dotted key of every
leaf and every string value that needs percent-quoting (a method name,
``withdraw/begin``) are translated through bounded memos, so a
steady-state message costs one dictionary lookup per key and per quoted
value, and urllib runs only on a spelling the process has not seen. A
wire integer is decoded and held to its one canonical spelling by a fixed
number of C calls (:func:`text_to_int`). A decoded body reaches its
handler as :class:`Fields` — nested to read, flat underneath — so
``flatten`` of a received payload is the decoded mapping itself, not a
second walk.
"""

from __future__ import annotations

import re
from binascii import a2b_base64, b2a_base64
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from typing import Any
from urllib.parse import quote, unquote

from repro.core.exceptions import ProtocolViolationError

WireValue = int | str
WireMapping = dict[str, WireValue]
#: What ``from_wire`` reads: dotted keys to wire text or in-process integers.
WireFields = Mapping[str, WireValue]

#: Fixed key-segment abbreviation dictionary (the transport "compression").
#: Applied segment-wise to dotted keys on encode, reversed on decode;
#: unknown segments pass through unchanged, and a segment spelled like a
#: short form is refused (see :func:`abbreviate_key`).
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

#: Entries each key or value memo may hold. A peer chooses the keys and
#: values it sends, so an unbounded memo would be memory it controls; a
#: full memo is emptied and relearns the honest spellings within one
#: message.
KEY_MEMO_BOUND = 4096
#: long dotted key -> percent-quoted abbreviated key, as :func:`encode` emits it.
_wire_keys: dict[str, str] = {}
#: key token as received (still quoted) -> long dotted key.
_long_keys: dict[str, str] = {}
#: string value needing quotes -> its percent-quoted wire text.
_wire_values: dict[str, str] = {}
#: value token as received, holding ``%`` or ``+`` -> the text it spells.
_plain_values: dict[str, str] = {}

_BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")
#: URL-safe to standard base64; the standard alphabet's own ``+`` and
#: ``/`` become ``!``, a character ``a2b_base64`` skips.
_FROM_URLSAFE = bytes.maketrans(b"-_+/", b"+/!!")
#: By ``len(text) % 4``: the final characters whose unused low bits are
#: zero (the only ones :func:`int_to_text` ends on), and the padding that
#: makes the text a whole base64 quantum. No text has length 1 mod 4.
_CANONICAL_LAST = (
    frozenset(_BASE64_ALPHABET),
    frozenset(),
    frozenset(_BASE64_ALPHABET[::16]),
    frozenset(_BASE64_ALPHABET[::4]),
)
_PADDING = (b"", b"", b"==", b"=")
#: Strings ``quote(safe="")`` would return unchanged.
_is_unreserved = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch


def int_to_text(value: int) -> str:
    """Encode a non-negative integer as unpadded URL-safe base64."""
    if value < 0:
        raise ValueError("wire integers must be non-negative")
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return b2a_base64(raw).translate(_TO_URLSAFE, b"=\n").decode("ascii")


def text_to_int(text: str) -> int:
    """Decode :func:`int_to_text` output, and nothing else.

    Padding, characters outside the alphabet, non-zero unused bits and
    leading zero bytes are all refused, so a value has one spelling and
    ``decode`` → ``encode`` reproduces the body it was given.

    One pass: ``a2b_base64`` decodes and skips whatever is not base64
    (``=`` included), so a text whose every character counted decodes to
    exactly ``3 * len(text) // 4`` bytes; the last character's unused
    bits and the first byte settle the rest. Nothing here needs
    ``a2b_base64``'s ``strict_mode`` (Python 3.11).

    Raises:
        ValueError: on empty or malformed input.
    """
    tail = len(text) % 4
    try:
        raw = a2b_base64(text.encode("ascii").translate(_FROM_URLSAFE) + _PADDING[tail])
    except ValueError:  # not ASCII, or no base64 quantum at all
        raw = b""
    if (
        len(raw) != len(text) * 3 // 4
        or not raw
        or text[-1] not in _CANONICAL_LAST[tail]
        or (raw[0] == 0 and len(raw) > 1)
    ):
        raise ValueError(
            f"malformed wire integer {text!r}" if text else "empty integer field"
        )
    return int.from_bytes(raw, "big")


def as_text(value: Any) -> str:
    """Coerce a wire value to its text form (ints via base64)."""
    if isinstance(value, int):
        return int_to_text(value)
    return str(value)


def as_int(value: Any) -> int:
    """Coerce a wire value to an integer (text via base64)."""
    if isinstance(value, int):
        return value
    return text_to_int(str(value))


def abbreviate_key(dotted: str) -> str:
    """Compress a dotted key through the abbreviation dictionary.

    Raises:
        ValueError: a segment is itself a short form (``s``, ``d``,
            ``v`` ...): it would travel unchanged and come back expanded,
            as a key the sender never wrote.
    """
    parts = dotted.split(".")
    for part in parts:
        if part in _EXPANSIONS and part not in KEY_ABBREVIATIONS:
            raise ValueError(
                f"wire key {dotted!r}: segment {part!r} is the short form of "
                f"{_EXPANSIONS[part]!r} and would decode as it; use a long name"
            )
    return ".".join(KEY_ABBREVIATIONS.get(part, part) for part in parts)


def expand_key(dotted: str) -> str:
    """Reverse :func:`abbreviate_key`."""
    return ".".join(_EXPANSIONS.get(part, part) for part in dotted.split("."))


def _remember(memo: dict[str, str], key: str, value: str) -> str:
    if len(memo) >= KEY_MEMO_BOUND:
        memo.clear()
    memo[key] = value
    return value


class Fields(Mapping[str, Any]):
    """A decoded body as a handler receives it: nested to read, flat beneath.

    ``fields["ticket"]`` is a scalar's wire text, ``fields["r0"]`` the
    group of keys under ``r0.`` (another view over the same mapping), and
    iteration yields the top-level names — what the nested dictionary
    built from the body would give, without building it.
    :func:`flatten` of a view is the decoded mapping itself. Built by
    :func:`nested`, which supplies ``groups``: every dotted prefix under
    which the mapping has keys.
    """

    __slots__ = ("flat", "groups", "lead")

    def __init__(self, flat: dict[str, str], groups: set[str], lead: str = "") -> None:
        self.flat = flat
        self.groups = groups
        self.lead = lead

    def __getitem__(self, name: str) -> Any:
        key = self.lead + name
        try:
            return self.flat[key]
        except KeyError:
            if key not in self.groups:
                raise KeyError(name) from None
        return Fields(self.flat, self.groups, key + ".")

    def __iter__(self) -> Iterator[str]:
        lead, skip = self.lead, len(self.lead)
        names = (key[skip:].partition(".")[0] for key in self.flat if key.startswith(lead))
        return iter(dict.fromkeys(names))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(unflatten(flatten(self)))


def nested(flat: dict[str, str]) -> Fields:
    """View a decoded mapping as the nested structure its keys spell.

    Raises:
        ValueError: a key is both a scalar and a group (``a=1&a.b=2``).
    """
    groups: set[str] = set()
    for group in {key.rpartition(".")[0] for key in flat if "." in key}:
        dot = "."
        while dot and group not in groups:
            if group in flat:
                raise ValueError(f"wire key {group!r} is both a scalar and a nested field")
            groups.add(group)
            group, dot, _ = group.rpartition(".")
    return Fields(flat, groups)


def _walk(mapping: Mapping[str, object], lead: str, out: WireMapping) -> None:
    for key, value in mapping.items():
        if "." in key or "=" in key or "&" in key:
            raise ValueError(f"illegal character in wire key {key!r}")
        full_key = lead + key
        kind = value.__class__
        if kind is int or kind is str:
            out[full_key] = value  # type: ignore[assignment]
        elif isinstance(value, (dict, Fields)):
            _walk(value, full_key + "." if full_key else "", out)
        elif isinstance(value, bool):
            raise TypeError("booleans are not wire values; encode as int 0/1")
        elif isinstance(value, (int, str)):
            out[full_key] = value
        else:
            raise TypeError(
                f"cannot serialize {type(value).__name__} at key {full_key!r}"
            )


def flatten(mapping: Mapping[str, object], prefix: str = "") -> WireMapping:
    """Flatten nested dictionaries into dotted keys.

    A received payload (:class:`Fields`) is flat already and is returned
    as the mapping it views, not copied.

    Raises:
        TypeError: if a leaf value is neither ``int`` nor ``str``.
    """
    if isinstance(mapping, Fields) and not prefix:
        if not mapping.lead:
            return mapping.flat  # type: ignore[return-value]
        return strip_prefix(mapping.flat, mapping.lead)
    out: WireMapping = {}
    _walk(mapping, f"{prefix}." if prefix else "", out)
    return out


def strip_prefix(fields: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """Select the keys under ``prefix``, with the prefix removed.

    Values pass through as they are: ``from_wire`` takes wire text and
    in-process integers alike.
    """
    skip = len(prefix)
    return {
        key[skip:]: value for key, value in fields.items() if key.startswith(prefix)
    }


def encode(mapping: Mapping[str, object]) -> str:
    """URL-encode a (possibly nested) mapping into a query string.

    Keys are abbreviated and sorted so encoding is deterministic — two
    parties serializing the same logical message produce byte-identical
    strings, which the signature checks rely on. The result is ASCII.

    Raises:
        ValueError: an illegal character in a key, a negative integer, or
            a key segment :func:`abbreviate_key` refuses (checked when a
            key is first learned, not per message).
        TypeError: a leaf that is neither ``int`` nor ``str``.
    """
    flat: WireMapping = {}
    _walk(mapping, "", flat)
    return encode_flat(flat)


def encode_flat(flat: Mapping[str, WireValue]) -> str:
    """:func:`encode` of a mapping that is flat already: dotted keys to
    ``int`` or ``str`` leaves, as :func:`flatten` returns and a received
    body decodes to.

    ``encode_flat(flatten(mapping)) == encode(mapping)``. The keys are
    trusted to be legal (a key first learned here is still checked by
    :func:`abbreviate_key`); the leaves are not checked for ``bool``.
    """
    pairs: list[str] = []
    for key in sorted(flat):
        value = flat[key]
        wire_key = _wire_keys.get(key)
        if wire_key is None:
            wire_key = _remember(_wire_keys, key, quote(abbreviate_key(key), safe=""))
        if isinstance(value, int):
            text = int_to_text(value)
        elif _is_unreserved(value):
            text = value
        else:
            quoted = _wire_values.get(value)
            if quoted is None:
                quoted = _remember(_wire_values, value, quote(value, safe=""))
            text = quoted
        pairs.append(f"{wire_key}={text}")
    return "&".join(pairs)


def _unquote(token: str) -> str:
    return unquote(token.replace("+", " "))


def decode(wire: str) -> dict[str, str]:
    """Decode a query string into a flat ``{dotted_key: text}`` mapping.

    Keys are expanded back to their long forms. Empty tokens (``a=1&&b=2``)
    are skipped, a token without ``=`` has an empty value, and only ``&``
    separates — the shapes ``urllib.parse.parse_qsl`` tolerates.

    Raises:
        ValueError: on duplicate keys (a malformed or maliciously crafted
            message).
    """
    out: dict[str, str] = {}
    for token in wire.split("&"):
        if not token:
            continue
        name, _, value = token.partition("=")
        key = _long_keys.get(name)
        if key is None:
            key = _remember(_long_keys, name, expand_key(_unquote(name)))
        if key in out:
            raise ValueError(f"duplicate wire key {key!r}")
        if "%" in value or "+" in value:
            plain = _plain_values.get(value)
            if plain is None:
                plain = _remember(_plain_values, value, _unquote(value))
            value = plain
        out[key] = value
    return out


def unflatten(flat: Mapping[str, str]) -> dict[str, object]:
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


def wire_bytes(mapping: Mapping[str, object]) -> int:
    """Return the on-the-wire size (bytes) of an encoded mapping.

    This is the quantity behind the "bytes transmitted" column of Table 2.
    """
    return len(encode(mapping))


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
    flat: Mapping[str, WireValue],
    group: str,
    prefix: str,
    shapes: Collection[frozenset[str]] | None = None,
) -> list[tuple[int, dict[str, str]]]:
    """Recover the items of a :func:`pack_batch` group in one pass.

    Args:
        flat: a flattened (dotted-key) message mapping.
        group: the field the batch was nested under (e.g. ``"batch"``;
            ``""`` when the items sit at the top level).
        prefix: the per-item key prefix (e.g. ``"t"``).
        shapes: the key sets an item may carry, or ``None`` for any.

    Returns:
        ``(index, fields)`` per item, in index order: the item's keys
        with the ``{group}.{prefix}N.`` lead removed and its values as
        wire text (what ``from_wire`` takes). An item that is a single
        value (``es.e0``) has one field, named ``""``.

    Raises:
        ProtocolViolationError: the indices are not ``0`` .. ``n-1``,
            each spelled once as :func:`pack_batch` spells it (so ``t1``
            and ``t01`` cannot merge into one item), or an item's keys
            are not one of ``shapes``.
    """
    lead = f"{group}.{prefix}" if group else prefix
    skip = len(lead)
    by_head: dict[str, dict[str, str]] = {}
    for key, value in flat.items():
        if key.startswith(lead):
            head, _, field = key[skip:].partition(".")
            fields = by_head.get(head)
            if fields is None:
                fields = by_head[head] = {}
            fields[field] = int_to_text(value) if isinstance(value, int) else value
    items: list[tuple[int, dict[str, str]]] = []
    # n distinct heads that include every canonical spelling 0..n-1 are
    # exactly those spellings: no second walk is needed to refuse "01".
    for index in range(len(by_head)):
        fields = by_head.get(str(index))
        if fields is None:
            raise ProtocolViolationError(
                f"indexed group {lead}N must be {lead}0..{lead}{len(by_head) - 1}, "
                "each index spelled once"
            )
        if shapes is not None and frozenset(fields) not in shapes:
            raise ProtocolViolationError(f"{lead}{index} does not carry an item's keys")
        items.append((index, fields))
    return items


def nest_keys(prefix: str, keys: Iterable[str]) -> frozenset[str]:
    """The dotted keys ``keys`` become when nested under ``prefix``
    (``""``: not nested, as in :func:`flatten`)."""
    return frozenset(f"{prefix}.{key}" if prefix else key for key in keys)


__all__ = [
    "Fields",
    "KEY_ABBREVIATIONS",
    "KEY_MEMO_BOUND",
    "abbreviate_key",
    "as_int",
    "as_text",
    "decode",
    "encode",
    "encode_flat",
    "expand_key",
    "flatten",
    "int_to_text",
    "nest_keys",
    "nested",
    "pack_batch",
    "split_batch",
    "strip_prefix",
    "text_to_int",
    "unflatten",
    "wire_bytes",
]
