"""Splicing a cached encoding gives the bytes of the flat tuple.

A coin is hashed inside a transcript, a challenge and a witness
signature; each party encodes it once and splices the cached bytes in
(:class:`~repro.crypto.hashing.Encoded`). That is sound only if the
splice is invisible in the output: ``encode_for_hash(*a, Encoded(
encode_for_hash(*b)), *c)`` must equal ``encode_for_hash(*a, *b, *c)``
for every ``a``, ``b`` and ``c``. CI runs this file with
``--hypothesis-profile=ci --hypothesis-seed=20070625``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import Encoded, encode_for_hash

PART = st.one_of(
    st.integers(min_value=0, max_value=2**1100),
    st.text(max_size=40),
    st.binary(max_size=80),
)
PARTS = st.lists(PART, max_size=6)


@given(PARTS, PARTS, PARTS)
def test_splicing_an_encoding_is_encoding_its_parts(a, b, c):
    spliced = encode_for_hash(*a, Encoded(encode_for_hash(*b)), *c)
    assert spliced == encode_for_hash(*a, *b, *c)


@given(PARTS, PARTS, PARTS, PARTS)
def test_splices_nest(a, b, c, d):
    """A transcript splices a coin that splices its bare coin."""
    inner = Encoded(encode_for_hash(*b))
    middle = Encoded(encode_for_hash(*a, inner, *c))
    assert encode_for_hash(middle, *d) == encode_for_hash(*a, *b, *c, *d)


@given(PARTS, st.binary(min_size=1, max_size=80), PARTS)
def test_a_bytes_part_is_a_value_not_a_splice(a, blob, c):
    """Plain ``bytes`` keep their tag and length: only :class:`Encoded`
    is copied verbatim, so an encoding hashed *as a value* (the witness's
    committed transcript) differs from the same encoding spliced."""
    assert encode_for_hash(*a, blob, *c) != encode_for_hash(*a, Encoded(blob), *c)
    assert encode_for_hash(*a, blob, *c) == encode_for_hash(
        *a, Encoded(encode_for_hash(blob)), *c
    )
