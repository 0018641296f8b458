"""The protocol hash functions ``F``, ``H``, ``H0`` and ``h``.

Section 5 of the paper fixes four random oracles:

* ``F : {0,1}* -> <g>`` — hash-to-group, used to derive ``z = F(info)`` in
  the Abe-Okamoto partially blind signature;
* ``H : {0,1}* -> Z_q`` — the challenge hash of the blind signature;
* ``H0 : {0,1}* -> Z_q`` — the payment challenge ``d = H0(C, I_M, date)``;
* ``h : {0,1}* -> [0, 2^k)`` — the coin hash that selects the witness range
  (and doubles as the generic transcript/commitment hash).

All four are built from SHA-256 with domain separation. Structured inputs
are canonicalized with an injective length-prefixed encoding so that no two
distinct tuples collide at the byte level. A protocol object that recurs
inside hashed tuples (a coin inside a transcript) is encoded once and its
bytes spliced in verbatim (:class:`Encoded`, :class:`CachedEncoding`).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import cast

from repro import perf
from repro.crypto import backend, counters
from repro.crypto.group import SchnorrGroup


class Encoded:
    """Bytes that :func:`encode_for_hash` produced, spliced in verbatim.

    Encoding a tuple that holds ``Encoded(encode_for_hash(*inner))`` gives
    the bytes of the same tuple with ``*inner`` in its place, so an object
    hashed inside several tuples is encoded once. A plain ``bytes`` part
    is a value, tagged and length-prefixed like any other.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


HashInput = int | str | bytes | Encoded

#: Width (bits) of the witness-selection hash ``h``; witness ranges
#: partition ``[0, 2^WITNESS_HASH_BITS)``.
WITNESS_HASH_BITS = 256


def encode_for_hash(*parts: HashInput) -> bytes:
    """Injectively encode a tuple of ints/strings/bytes for hashing.

    Each part is tagged with its type and prefixed with its 8-byte length,
    so ``("ab", "c")`` and ``("a", "bc")`` hash differently. An
    :class:`Encoded` part is copied as it is: it is already such an
    encoding.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("booleans are ambiguous hash inputs; encode explicitly")
        if isinstance(part, int):
            if part < 0:
                raise ValueError("hash inputs must be non-negative integers")
            body = part.to_bytes((part.bit_length() + 7) // 8 or 1, "big")
            tag = b"i"
        elif isinstance(part, str):
            body = part.encode("utf-8")
            tag = b"s"
        elif isinstance(part, (bytes, bytearray)):
            body = bytes(part)
            tag = b"b"
        elif isinstance(part, Encoded):
            out += part.data
            continue
        else:
            raise TypeError(f"unhashable protocol value of type {type(part).__name__}")
        out += tag
        out += len(body).to_bytes(8, "big")
        out += body
    return bytes(out)


class CachedEncoding:
    """``hash_parts()`` of a frozen dataclass, encoded once per instance.

    The encoding is cached in the instance's ``__dict__``, the way
    ``WitnessAssignmentTable`` caches its sorted view: outside the
    dataclass fields, so equality and hashing ignore it and a
    :func:`dataclasses.replace` copy starts without it.
    """

    def hash_parts(self) -> tuple[HashInput, ...]:
        """The canonical tuple this object is hashed as."""
        raise NotImplementedError

    def hash_encoding(self) -> Encoded:
        """``encode_for_hash(*self.hash_parts())``, computed on first use."""
        cached: Encoded | None = self.__dict__.get("_hash_encoding")
        if cached is None:
            cached = Encoded(encode_for_hash(*self.hash_parts()))
            object.__setattr__(self, "_hash_encoding", cached)
        return cached


def _digest(domain: bytes, data: bytes) -> bytes:
    return hashlib.sha256(domain + data).digest()


def constant_time_eq(a: int | bytes | str, b: int | bytes | str) -> bool:
    """Constant-time equality for digest-typed protocol values.

    The protocol's digests, nonces and salts are integers (outputs of
    ``h``/``H0``), so both sides are padded to a common byte width and
    compared with :func:`hmac.compare_digest` — a short-circuiting
    ``==`` would let an adversary who controls one side (a forged salt,
    a guessed nonce) binary-search the other through timing. The width
    itself is not secret: every compared value is already a public
    hash-sized quantity.

    Mixed types never compare equal (mirroring ``==``); negative
    integers cannot be digests and also compare unequal.
    """
    if isinstance(a, str):
        a = a.encode("utf-8")
    if isinstance(b, str):
        b = b.encode("utf-8")
    if isinstance(a, int) and isinstance(b, int):
        if a < 0 or b < 0:
            return False
        size = max((a.bit_length() + 7) // 8, (b.bit_length() + 7) // 8, 1)
        return hmac.compare_digest(a.to_bytes(size, "big"), b.to_bytes(size, "big"))
    if isinstance(a, (bytes, bytearray)) and isinstance(b, (bytes, bytearray)):
        return hmac.compare_digest(bytes(a), bytes(b))
    return False


@dataclass(frozen=True)
class HashSuite:
    """The four protocol hash functions bound to a group.

    Every evaluation reports one ``Hash`` event to the active
    :class:`~repro.crypto.counters.OpCounter` (the hash-to-group ``F``
    performs an internal exponentiation to land in the subgroup; that
    exponentiation is suppressed, matching the paper's accounting where
    ``F(info)`` is one hash).
    """

    group: SchnorrGroup

    def F(self, *parts: HashInput) -> int:  # noqa: N802 - paper notation
        """Hash into the order-``q`` subgroup ``<g>`` with unknown dlog.

        The digest is expanded to an element of ``Z_p^*`` and raised to
        ``(p-1)/q`` to force it into the subgroup; the counter-indexed
        retry loop handles the (cryptographically negligible) chance of
        hitting the identity.

        The cofactor exponentiation works on an ``(p-1)/q``-bit exponent —
        by far the costliest single operation in a coin verification — and
        ``F`` is deterministic, so the result is memoized per
        ``(p, q, *parts)``: a hit neither encodes nor digests the parts.
        The logical ``Hash`` event is recorded on every call, hit or miss.
        """
        counters.record_hash()
        element = cast(
            int,
            perf.memoized(
                "hash-F",
                (self.group.p, self.group.q, *parts),
                lambda: self._hash_to_group(encode_for_hash(*parts)),
            ),
        )
        # ``z = F(info)`` recurs as an exponentiation base in every
        # signature over coins sharing the same public info, so it is a
        # prime fixed-base candidate.
        perf.register(element, self.group.p, self.group.q)
        return element

    def _hash_to_group(self, data: bytes) -> int:
        cofactor = (self.group.p - 1) // self.group.q
        with counters.suppressed():
            for attempt in range(256):
                seed = _digest(b"repro/F/" + bytes([attempt]), data)
                candidate = self._expand(seed) % self.group.p
                if candidate in (0, 1):
                    continue
                element = backend.powmod(candidate, cofactor, self.group.p)
                if element != 1:
                    return element
        raise RuntimeError("hash-to-group failed to find a subgroup element")

    def H(self, *parts: HashInput) -> int:  # noqa: N802 - paper notation
        """The blind-signature challenge hash into ``Z_q``."""
        counters.record_hash()
        return int.from_bytes(_digest(b"repro/H/", encode_for_hash(*parts)), "big") % self.group.q

    def H0(self, *parts: HashInput) -> int:  # noqa: N802 - paper notation
        """The payment challenge hash ``d = H0(C, I_M, date/time)``."""
        counters.record_hash()
        return int.from_bytes(_digest(b"repro/H0/", encode_for_hash(*parts)), "big") % self.group.q

    def h(self, *parts: HashInput) -> int:
        """The generic ``k``-bit hash used for witness selection and digests."""
        counters.record_hash()
        return int.from_bytes(_digest(b"repro/h/", encode_for_hash(*parts)), "big")

    def _expand(self, seed: bytes) -> int:
        """Expand a 32-byte seed to ``p.bit_length()`` pseudorandom bits."""
        needed = (self.group.p.bit_length() + 7) // 8
        blocks: list[bytes] = []
        counter = 0
        while sum(len(b) for b in blocks) < needed:
            blocks.append(_digest(b"repro/expand/", seed + counter.to_bytes(4, "big")))
            counter += 1
        return int.from_bytes(b"".join(blocks)[:needed], "big")
