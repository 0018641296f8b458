"""Tests for the URI wire format (base64 ints, key abbreviation)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import ProtocolViolationError
from repro.crypto.serialize import (
    KEY_ABBREVIATIONS,
    abbreviate_key,
    decode,
    encode,
    expand_key,
    flatten,
    int_to_text,
    pack_batch,
    split_batch,
    text_to_int,
    unflatten,
    wire_bytes,
)


@given(st.integers(min_value=0, max_value=2**2048))
def test_int_roundtrip(value):
    assert text_to_int(int_to_text(value)) == value


def test_int_encoding_compact():
    # base64 is ~4/3 of byte length, far below hex's 2x.
    value = 2**1023
    assert len(int_to_text(value)) <= (1024 // 8) * 4 // 3 + 3


def test_negative_int_rejected():
    with pytest.raises(ValueError):
        int_to_text(-1)


def test_malformed_int_rejected():
    with pytest.raises(ValueError):
        text_to_int("")
    with pytest.raises(ValueError):
        text_to_int("!!not-base64!!")


@pytest.mark.parametrize("text", ["AQ=", "AQ==", "AAE", "AAAB", "AAA", "AR", "A", "AQ\n", "A/", "A+"])
def test_an_integer_has_one_spelling(text):
    """Only ``int_to_text`` output parses: no padding, no leading zero
    byte, no set unused bits — so ``decode`` → ``encode`` reproduces a
    body and the daemon meter agrees with its sim twin."""
    with pytest.raises(ValueError):
        text_to_int(text)


def test_canonical_integer_spellings_parse():
    assert text_to_int("AQ") == 1
    assert text_to_int("AA") == 0
    assert text_to_int("AQA") == 256
    assert text_to_int("_w") == 255
    assert [int_to_text(value) for value in (0, 1, 255, 256)] == ["AA", "AQ", "_w", "AQA"]


def test_abbreviation_roundtrip_all_keys():
    for long_key in KEY_ABBREVIATIONS:
        assert expand_key(abbreviate_key(long_key)) == long_key
    dotted = "transcript.coin.bare.sig.rho"
    assert expand_key(abbreviate_key(dotted)) == dotted
    assert abbreviate_key(dotted) == "t.n.b.g.r"


def test_unknown_segments_pass_through():
    assert abbreviate_key("custom.field") == "custom.field"
    assert expand_key("custom.field") == "custom.field"


def test_flatten_nested():
    assert flatten({"a": {"b": 1, "c": "x"}, "d": 2}) == {"a.b": 1, "a.c": "x", "d": 2}


def test_flatten_rejects_bad_values():
    with pytest.raises(TypeError):
        flatten({"a": 3.14})
    with pytest.raises(TypeError):
        flatten({"a": True})
    with pytest.raises(ValueError):
        flatten({"a.b": 1})


def test_encode_decode_roundtrip():
    payload = {"coin": {"bare": {"sig": {"rho": 12345}}}, "merchant_id": "bob-news"}
    wire = encode(payload)
    decoded = decode(wire)
    assert decoded["coin.bare.sig.rho"] == int_to_text(12345)
    assert decoded["merchant_id"] == "bob-news"
    assert unflatten(decoded)["coin"]["bare"]["sig"]["rho"] == int_to_text(12345)


def test_encode_deterministic():
    payload = {"q": 1, "a": 2, "k": {"z": 3, "y": 4}}
    assert encode(payload) == encode({"k": {"y": 4, "z": 3}, "a": 2, "q": 1})


def test_decode_rejects_duplicates():
    with pytest.raises(ValueError):
        decode("a=1&a=2")


def test_unflatten_conflicts_detected():
    with pytest.raises(ValueError):
        unflatten({"a": "1", "a.b": "2"})
    with pytest.raises(ValueError):
        unflatten({"a.b": "2", "a": "1"})


def test_wire_bytes_counts_encoded_length():
    payload = {"k": 255}
    assert wire_bytes(payload) == len(encode(payload).encode("ascii"))


@given(
    st.dictionaries(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=8).filter(
            lambda key: key not in KEY_ABBREVIATIONS.values()
        ),
        st.one_of(st.integers(min_value=0, max_value=2**64), st.text(max_size=16)),
        max_size=6,
    )
)
def test_encode_decode_property(payload):
    """Every key that encodes comes back as itself (a key spelled like a
    short form would not, and ``encode`` refuses it)."""
    assert set(decode(encode(payload))) == set(payload)


def test_split_batch_is_the_receiving_half_of_pack_batch():
    items = [{"a": index, "nested": {"leaf": f"v{index}"}} for index in range(12)]
    message = {"who": "m", "batch": pack_batch("t", items), "batchx": {"t0": {"a": 9}}}
    expected = [
        (index, {"a": int_to_text(index), "nested.leaf": f"v{index}"}) for index in range(12)
    ]
    # Straight from the sender (ints) and after a trip over the wire (text).
    assert split_batch(flatten(message), "batch", "t") == expected
    assert split_batch(decode(encode(message)), "batch", "t") == expected


def test_split_batch_orders_by_index_and_skips_foreign_keys():
    flat = {f"batch.t{index}.a": str(index) for index in (10, 2, 0, 7, 1, 9, 3, 8, 4, 6, 5)}
    flat.update({"batch.i0.a": "another group", "other.t0.a": "another field", "who": "m"})
    assert split_batch(flat, "batch", "t") == [(index, {"a": str(index)}) for index in range(11)]
    assert split_batch(flat, "batch", "z") == []


@pytest.mark.parametrize(
    "keys",
    [
        # ``t1``, ``t01`` and ``t١`` (an Arabic-Indic one) all pass
        # ``isdigit`` and ``int`` reads each as 1: the old walk assembled
        # one transcript from the three. Only pack_batch's spelling counts.
        ["batch.t1.a", "batch.t01.b", "batch.t\u0661.c"],
        ["batch.t0.a", "batch.t1.a", "batch.t01.b", "batch.t\u0661.c"],
        ["batch.t0.a", "batch.t2.a"],  # a gap
        ["batch.t1.a", "batch.t2.a"],  # not from 0
        ["batch.t0.a", "batch.tail.a"],  # not a number
        ["batch.t0.a", "batch.t+1.a"],
        ["batch.t0.a", "batch.t.a"],
    ],
    ids=["three-spellings-of-1", "after-0", "gap", "from-1", "word", "sign", "empty"],
)
def test_split_batch_refuses_indices_that_are_not_0_to_n(keys):
    with pytest.raises(ProtocolViolationError, match="each index spelled once"):
        split_batch(dict.fromkeys(keys, "v"), "batch", "t")


def test_split_batch_holds_every_item_to_one_of_its_shapes():
    shapes = (frozenset({"outcome", "amount"}), frozenset({"kind", "error"}))
    good = {"r0.outcome": "ok", "r0.amount": "AQ", "r1.kind": "E", "r1.error": "no"}
    assert [fields for _, fields in split_batch(good, "", "r", shapes)] == [
        {"outcome": "ok", "amount": "AQ"},
        {"kind": "E", "error": "no"},
    ]
    for bad in ({**good, "r1.amount": "AQ"}, {"r0.outcome": "ok", "r1.kind": "E", "r1.error": "no"}):
        with pytest.raises(ProtocolViolationError, match="does not carry an item's keys"):
            split_batch(bad, "", "r", shapes)
    # A single-valued item is the field "".
    assert split_batch({"es.e0": 5, "es.e1": "Bg"}, "es", "e", [frozenset({""})]) == [
        (0, {"": "BQ"}),
        (1, {"": "Bg"}),
    ]
