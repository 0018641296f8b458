"""The single-pass wire codec against the multi-pass one it replaced.

``reference_codec`` holds the old ``encode``/``decode``/``flatten``/
``unflatten``/``text_to_int`` verbatim. Every property here runs both
sides on the same input and demands the same bytes, the same mapping or
the same exception type — so dropping any one refusal from the live
codec (duplicate keys, scalar/nested conflicts, illegal key characters,
booleans, non-``int|str`` leaves, negative integers, malformed integer
text) fails a test in this file.

The per-value steps are held to the ones they replaced as well: every
integer spelling is accepted or refused exactly as
``reference.canonical_text_to_int`` does, and every string value is
written and read back as urllib's ``quote``/``unquote`` did on every
message, before the value memos — however full those memos are.

One refusal is the live codec's alone: a key segment spelled like a
short form (``s``, ``d``, ``v`` ...). The reference sent it unchanged and
read it back expanded, as a key nobody wrote; the live ``encode`` raises
``ValueError``, and agrees with the reference on every other key.
"""

import base64
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.protocols import run_withdrawal
from repro.core.transcripts import CommitmentRequest, DoubleSpendProof
from repro.crypto import serialize
from repro.crypto.serialize import (
    KEY_ABBREVIATIONS,
    KEY_MEMO_BOUND,
    Fields,
    decode,
    encode,
    flatten,
    int_to_text,
    nested,
    text_to_int,
)
from tests.conftest import other_merchant
from tests.crypto import reference_codec as reference

LONG = sorted(KEY_ABBREVIATIONS)
SHORT = sorted(KEY_ABBREVIATIONS.values())
#: Key segments: abbreviated, unabbreviated, ones that need quoting and
#: the empty segment; short forms (which only a received body may hold),
#: and (hostile only) the three characters encode refuses.
SENDABLE_SEGMENTS = st.one_of(
    st.sampled_from(LONG),
    st.sampled_from(["A", "B", "r0", "t17", "x1", "custom", "", "a b", "k~", "ü", "%41", "a+b"]),
)
SEGMENTS = st.one_of(SENDABLE_SEGMENTS, st.sampled_from(SHORT))
HOSTILE_SEGMENTS = st.one_of(SEGMENTS, st.sampled_from(["a.b", "a=b", "a&b", ".", "="]))
RESERVED_TEXT = st.text(alphabet="abXY09-_.~ %+&=/?#;:@é\n\x00", max_size=12)
INTEGERS = st.one_of(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=1024).flatmap(
        lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
    ),
)
LEAVES = st.one_of(INTEGERS, RESERVED_TEXT)
HOSTILE_LEAVES = st.one_of(
    LEAVES,
    st.sampled_from([True, False, None, -1, -(2**70), 1.5, b"bytes", ("t",), [1]]),
)


def mappings(segments, leaves):
    return st.recursive(
        st.dictionaries(segments, leaves, max_size=5),
        lambda children: st.dictionaries(segments, st.one_of(leaves, children), max_size=4),
        max_leaves=24,
    )


def outcome(function, *args):
    """What a call did: ``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return ("ok", function(*args))
    except Exception as error:  # the differential compares the type
        return ("raised", type(error))


# ----------------------------------------------------------------------
# encode / flatten
# ----------------------------------------------------------------------
@given(mappings(SENDABLE_SEGMENTS, LEAVES))
def test_encode_is_byte_identical(mapping):
    assert encode(mapping) == reference.encode(mapping)
    assert flatten(mapping) == reference.flatten(mapping)
    assert serialize.wire_bytes(mapping) == len(reference.encode(mapping).encode("ascii"))


def _holds_a_short_form(mapping):
    return any(part in SHORT for key in reference.flatten(mapping) for part in key.split("."))


@given(mappings(HOSTILE_SEGMENTS, HOSTILE_LEAVES))
def test_encode_refuses_what_the_reference_refuses(mapping):
    expected = outcome(reference.encode, mapping)
    if expected[0] == "ok" and _holds_a_short_form(mapping):
        expected = ("raised", ValueError)  # the one refusal the reference lacks
    assert outcome(encode, mapping) == expected
    assert outcome(flatten, mapping) == outcome(reference.flatten, mapping)


@pytest.mark.parametrize(
    "mapping, error",
    [
        ({"a.b": 1}, ValueError),
        ({"a": {"b=c": 1}}, ValueError),
        ({"a&": "x"}, ValueError),
        ({"a": True}, TypeError),
        ({"a": {"b": False}}, TypeError),
        ({"a": 1.0}, TypeError),
        ({"a": None}, TypeError),
        ({"a": -1}, ValueError),
    ],
)
def test_each_encode_side_refusal(mapping, error):
    with pytest.raises(error):
        reference.encode(mapping)
    with pytest.raises(error):
        encode(mapping)


@pytest.mark.parametrize("short", SHORT)
def test_a_segment_spelled_like_a_short_form_is_refused(short):
    """``{"session": {"s": 1}}`` went out as ``session.s`` and came back as
    ``session.sig_s``; now it does not go out. Refused every time — a
    refused key is never learned — and its long form still encodes."""
    long = reference._EXPANSIONS[short]
    for mapping in ({short: 1}, {"session": {short: "x"}}, {short: {"A": 1}}):
        assert set(reference.decode(reference.encode(mapping))) != set(reference.flatten(mapping))
        for _ in range(2):
            with pytest.raises(ValueError, match="short form"):
                encode(mapping)
    assert decode(encode({"session": {long: 1}})) == {f"session.{long}": "AQ"}
    assert decode(f"{short}=AQ") == {long: "AQ"}  # receiving a short form is the point of them


# ----------------------------------------------------------------------
# decode / nested
# ----------------------------------------------------------------------
def parse(wire):
    """The daemon's path from a body to what a handler reads."""
    return nested(decode(wire))


def reference_parse(wire):
    return reference.unflatten(reference.decode(wire))


MUTATIONS = (
    lambda wire, rng: wire.replace("=", "", 1),
    lambda wire, rng: wire.replace("&", "&&", 1),
    lambda wire, rng: _splice(wire, rng, "%zz"),
    lambda wire, rng: _splice(wire, rng, "%4"),
    lambda wire, rng: _splice(wire, rng, "%C3%A9"),
    lambda wire, rng: _splice(wire, rng, "%ff"),
    lambda wire, rng: _splice(wire, rng, "+"),
    lambda wire, rng: _splice(wire, rng, "é"),
    lambda wire, rng: _splice(wire, rng, ";"),
    lambda wire, rng: _splice(wire, rng, "="),
    lambda wire, rng: _splice(wire, rng, "&"),
    lambda wire, rng: _splice(wire, rng, "."),
    # the same key under its other spelling, a scalar above a group, a group under a scalar
    lambda wire, rng: wire + "&" + _respell(rng.choice(wire.split("&")).partition("=")[0]) + "=x",
    lambda wire, rng: wire + "&" + rng.choice(wire.split("&")).partition("=")[0].rpartition(".")[0] + "=x",
    lambda wire, rng: wire + "&" + rng.choice(wire.split("&")).partition("=")[0] + ".sub=x",
    lambda wire, rng: wire[: rng.randrange(len(wire) + 1)],
)


def _splice(wire, rng, piece):
    at = rng.randrange(len(wire) + 1)
    return wire[:at] + piece + wire[at:]


def _respell(key):
    return ".".join(
        KEY_ABBREVIATIONS.get(part) or reference._EXPANSIONS.get(part, part)
        for part in key.split(".")
    )


@given(
    mappings(SEGMENTS, LEAVES),
    st.lists(st.integers(min_value=0, max_value=len(MUTATIONS) - 1), max_size=3),
    st.randoms(use_true_random=False),
)
def test_decode_of_mutated_bodies_matches(mapping, mutations, rng):
    wire = reference.encode(mapping)
    for index in mutations:
        wire = MUTATIONS[index](wire, rng)
    assert outcome(decode, wire) == outcome(reference.decode, wire)
    assert outcome(parse, wire) == outcome(reference_parse, wire)


@given(st.text(alphabet="abtn.=&%+; 01zé4C", max_size=40))
def test_decode_of_hostile_strings_matches(wire):
    assert outcome(decode, wire) == outcome(reference.decode, wire)
    assert outcome(parse, wire) == outcome(reference_parse, wire)


@pytest.mark.parametrize(
    "wire",
    ["a=1&a=2", "t.n=1&transcript.coin=2", "t%2En=1&t.n=2", "a=1&a.b=2", "a.b=2&a=1", "a.=1&a=2"],
)
def test_each_decode_side_refusal(wire):
    with pytest.raises(ValueError):
        reference_parse(wire)
    with pytest.raises(ValueError):
        parse(wire)


@pytest.mark.parametrize(
    "wire, mapping",
    [
        ("a=1&&z=2", {"a": "1", "z": "2"}),
        ("a&z=2", {"a": "", "z": "2"}),
        ("a=1;z=2", {"a": "1;z=2"}),
        ("a=x+y%20z", {"a": "x y z"}),
        ("a=%zz%4", {"a": "%zz%4"}),
        ("", {}),
        ("&", {}),
        ("=", {"": ""}),
    ],
)
def test_tolerated_shapes_decode_as_before(wire, mapping):
    assert reference.decode(wire) == mapping
    assert decode(wire) == mapping


def test_fields_reads_like_the_nested_dictionary():
    flat = decode("t.n.b.A=AQ&t.m=shop&st=ok&r0.oc=credited&r0.am=Cg&r1.oc=credited")
    fields = nested(dict(flat))
    assert fields == reference.unflatten(flat)
    assert set(fields) == {"transcript", "status", "r0", "r1"} and len(fields) == 4
    assert fields["r0"]["outcome"] == "credited" and fields["status"] == "ok"
    assert "r1" in fields and "r2" not in fields and fields.get("r2") is None
    assert flatten(fields) is fields.flat
    assert flatten(fields["transcript"]) == {"coin.bare.A": "AQ", "merchant_id": "shop"}
    assert isinstance(fields["transcript"]["coin"], Fields)
    assert repr(fields) == repr(reference.unflatten(flat))
    # A received payload embedded in a reply encodes as the dictionary would.
    assert encode({"echo": fields}) == reference.encode({"echo": reference.unflatten(flat)})
    with pytest.raises(KeyError):
        fields["transcript"]["nope"]


# ----------------------------------------------------------------------
# integer text
# ----------------------------------------------------------------------
@given(INTEGERS)
def test_integer_text_matches(value):
    text = int_to_text(value)
    assert text == reference.int_to_text(value)
    assert text_to_int(text) == reference.text_to_int(text) == value


@given(st.text(alphabet="AQEBgw_-=+/ .\n", max_size=8))
def test_integer_text_accepts_only_canonical_spellings(text):
    """The live parser accepts exactly what ``int_to_text`` emits; the
    reference accepted that plus padded and zero-prefixed spellings."""
    live = outcome(text_to_int, text)
    old = outcome(reference.text_to_int, text)
    if live[0] == "ok":
        assert old == live and int_to_text(live[1]) == text
    else:
        assert live == ("raised", ValueError)
        if old[0] == "ok":
            assert int_to_text(old[1]) != text  # the satellite-1 tightening, nothing else


#: Wire integers up to 1100 bits: past the paper's 1024-bit group.
WIDE_INTEGERS = st.one_of(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=1100).flatmap(
        lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
    ),
)


def _with_nonzero_trailing_bits(text):
    """``text`` with its last character's unused bits set, if it has any."""
    unused = {0: 0, 2: 4, 3: 2}[len(text) % 4]
    if not unused:
        return text + "A"  # no unused bits: a length of 1 mod 4 instead
    alphabet = serialize._BASE64_ALPHABET
    return text[:-1] + alphabet[alphabet.index(text[-1]) | 1]


#: Each way a spelling can fail to be the canonical one.
MISSPELLINGS = {
    "padding": lambda text, rng: text + "=" * rng.randint(1, 2),
    "plus": lambda text, rng: _splice(text, rng, "+"),
    "slash": lambda text, rng: _splice(text, rng, "/"),
    "equals inside": lambda text, rng: _splice(text, rng, "="),
    "non-ASCII": lambda text, rng: _splice(text, rng, rng.choice("éÄ\u00a0\u2028")),
    "whitespace": lambda text, rng: _splice(text, rng, rng.choice(" \n\t")),
    "trailing bits": lambda text, rng: _with_nonzero_trailing_bits(text),
    "leading zero byte": lambda text, rng: _zero_prefixed(text),
    "length 1 mod 4": lambda text, rng: text[: len(text) - len(text) % 4 + 1],
    "empty": lambda text, rng: "",
}


def _zero_prefixed(text):
    """The spelling of ``text``'s bytes with a zero byte in front."""
    raw = b"\x00" + base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


@given(WIDE_INTEGERS)
def test_every_integer_up_to_1100_bits_round_trips_as_before(value):
    text = int_to_text(value)
    assert text == reference.int_to_text(value)
    assert text_to_int(text) == reference.canonical_text_to_int(text) == value


@given(WIDE_INTEGERS, st.sampled_from(sorted(MISSPELLINGS)), st.randoms(use_true_random=False))
def test_every_misspelling_is_refused_as_before(value, kind, rng):
    text = MISSPELLINGS[kind](int_to_text(value), rng)
    live = outcome(text_to_int, text)
    assert live == outcome(reference.canonical_text_to_int, text)
    if text != int_to_text(value):
        assert live == ("raised", ValueError), (kind, text)


@pytest.mark.parametrize(
    "text",
    ["", "A", "AQ=", "AQ==", "AAE", "AAAB", "AR", "AQ+", "A/", "A=Q", "Aé", "AQ\n", "AAAAA", "-_"],
)
def test_each_misspelled_integer_is_refused(text):
    with pytest.raises(ValueError):
        reference.canonical_text_to_int(text)
    with pytest.raises(ValueError, match="malformed wire integer|empty integer field"):
        text_to_int(text)


ESCAPED_TEXT = st.text(alphabet="abXY09-_.~ %+&=/?#;:@é\n\x00", max_size=16)
ESCAPED_TOKENS = st.lists(
    st.one_of(
        st.sampled_from(["%2F", "%2f", "%25", "%C3%A9", "%ff", "%zz", "%4", "%", "+", "++", "%2B"]),
        st.text(alphabet="aZ09-_.~é", max_size=3),
    ),
    max_size=6,
).map("".join)


@given(ESCAPED_TEXT)
def test_string_values_are_quoted_as_urllib_quoted_them(value):
    for _ in range(2):  # learned, then read from the memo
        wire = encode({"field": value})
        assert wire == "field=" + reference.quote_value(value)
        assert decode(wire) == {"field": value}


@given(ESCAPED_TOKENS)
def test_value_tokens_are_unquoted_as_urllib_unquoted_them(token):
    for _ in range(2):
        assert decode("field=" + token) == {"field": reference.unquote_value(token)}
        assert decode("field=" + token) == reference.decode("field=" + token)


# ----------------------------------------------------------------------
# memo bound
# ----------------------------------------------------------------------
def test_attacker_keys_cannot_grow_the_memos_past_their_bound():
    rng = random.Random(16)
    honest = encode({"transcript": {"coin": {"bare": {"A": 1}}, "merchant_id": "shop"}})
    for batch in range(10):
        keys = [f"k{batch}x{index}x{rng.getrandbits(32):x}" for index in range(KEY_MEMO_BOUND)]
        wire = "&".join(f"{key}.t.n={index}" for index, key in enumerate(keys))
        decoded = decode(wire)
        assert len(serialize._long_keys) <= KEY_MEMO_BOUND
        assert decoded == reference.decode(wire)
        mapping = {key: {"transcript": index} for index, key in enumerate(keys)}
        assert encode(mapping) == reference.encode(mapping)
        assert len(serialize._wire_keys) <= KEY_MEMO_BOUND
        # Values the attacker chooses, each needing quotes, each new.
        values = {f"v{index}": f"{key}/%{index % 10}+" for index, key in enumerate(keys)}
        assert encode(values) == reference.encode(values)
        assert len(serialize._wire_values) <= KEY_MEMO_BOUND
        wire = reference.encode(values)
        assert decode(wire) == reference.decode(wire) == values
        assert len(serialize._plain_values) <= KEY_MEMO_BOUND
        assert decode(honest) == reference.decode(honest)
        assert decode("_method=withdraw%2Fbegin") == {"_method": "withdraw/begin"}


# ----------------------------------------------------------------------
# from_wire at a prefix
# ----------------------------------------------------------------------
def test_every_wire_class_round_trips_at_a_prefix(system):
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    merchant_id = other_merchant(system, stored.coin.witness_id)
    witness = system.witness_of(stored)
    request, pending = client.prepare_commitment_request(stored, merchant_id, 10)
    commitment = witness.request_commitment(request, 10)
    transcript = client.build_payment(pending, commitment, witness.public_key, 10)
    signed = witness.sign_transcript(transcript, 10)
    objects = [
        stored.coin.info,
        stored.coin.witness_entry,
        stored.coin.bare,
        stored.coin,
        CommitmentRequest(coin_hash=request.coin_hash, nonce=request.nonce),
        commitment,
        signed.transcript,
        signed,
        DoubleSpendProof.from_secrets(5, stored.secrets),
        DoubleSpendProof(coin_hash=5, x=stored.secrets.x, y=None),
    ]
    for item in objects:
        cls = type(item)
        for prefix in ("", "batch.t3.", "signed."):
            message = {"decoy": item.to_wire(), "zz": 1}
            if prefix:
                node = message
                for part in prefix.rstrip(".").split("."):
                    node = node.setdefault(part, {})
                node.update(item.to_wire())
            else:
                message.update(item.to_wire())
            # In process (integers) and after a trip over the wire (text).
            assert cls.from_wire(flatten(message), prefix) == item
            assert cls.from_wire(decode(encode(message)), prefix) == item
