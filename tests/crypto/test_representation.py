"""Tests for representation commitments, the payment NIZK and extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import test_params as make_test_params
from repro.crypto.counters import OpCounter
from repro.crypto.representation import (
    Representation,
    RepresentationPair,
    RepresentationResponse,
    extract_representations,
    respond,
    verify_response,
)


@pytest.fixture(scope="module")
def params():
    return make_test_params()


@pytest.fixture()
def secrets(params, rng):
    return RepresentationPair.generate(params.group, rng)


def test_commitments_and_valid_response(params, secrets):
    a, b = secrets.commitments(params.group)
    d = 123456789 % params.group.q
    response = respond(secrets, d, params.group.q)
    assert verify_response(params.group, a, b, d, response)


def test_wrong_response_rejected(params, secrets):
    a, b = secrets.commitments(params.group)
    d = 42
    response = respond(secrets, d, params.group.q)
    bad = RepresentationResponse(r1=(response.r1 + 1) % params.group.q, r2=response.r2)
    assert not verify_response(params.group, a, b, d, bad)
    assert not verify_response(params.group, a, b, d + 1, response)


@pytest.mark.parametrize("shift", [1, -1], ids=["plus-q", "minus-q"])
@pytest.mark.parametrize("component", ["r1", "r2"])
def test_a_reencoded_response_is_refused(params, secrets, component, shift):
    """``r + q`` opens the same commitment; only the canonical residue verifies."""
    a, b = secrets.commitments(params.group)
    d = 42
    response = respond(secrets, d, params.group.q)
    assert verify_response(params.group, a, b, d, response)
    fields = {"r1": response.r1, "r2": response.r2}
    fields[component] += shift * params.group.q
    assert not verify_response(params.group, a, b, d, RepresentationResponse(**fields))


def test_response_is_zero_exponentiations(params, secrets):
    counter = OpCounter()
    with counter:
        respond(secrets, 99, params.group.q)
    assert counter.exp == 0


def test_verify_is_three_exponentiations(params, secrets):
    a, b = secrets.commitments(params.group)
    response = respond(secrets, 7, params.group.q)
    counter = OpCounter()
    with counter:
        verify_response(params.group, a, b, 7, response)
    assert counter.exp == 3


def test_extraction_recovers_secrets(params, secrets):
    q = params.group.q
    d1, d2 = 1111, 2222
    extracted = extract_representations(
        d1, respond(secrets, d1, q), d2, respond(secrets, d2, q), q
    )
    assert extracted == secrets


def test_extraction_requires_distinct_challenges(params, secrets):
    q = params.group.q
    response = respond(secrets, 5, q)
    with pytest.raises(ValueError):
        extract_representations(5, response, 5, response, q)
    with pytest.raises(ValueError):
        extract_representations(5, response, 5 + q, response, q)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**64),
)
def test_extraction_property(params, d1, d2):
    q = params.group.q
    rng = random.Random(d1 * 31 + d2)
    secrets = RepresentationPair.generate(params.group, rng)
    if (d1 - d2) % q == 0:
        with pytest.raises(ValueError):
            extract_representations(
                d1, respond(secrets, d1, q), d2, respond(secrets, d2, q), q
            )
    else:
        extracted = extract_representations(
            d1, respond(secrets, d1, q), d2, respond(secrets, d2, q), q
        )
        assert extracted == secrets


def test_opens(params, secrets):
    a, b = secrets.commitments(params.group)
    assert secrets.x.opens(params.group, a)
    assert secrets.y.opens(params.group, b)
    assert not secrets.x.opens(params.group, b)
    assert not Representation(1, 2).opens(params.group, a)


def test_single_response_hides_secrets(params):
    """One response reveals nothing: for any candidate y-representation
    there exists a consistent x — the response is information-theoretically
    consistent with every possible secret (the NIZK's zero-knowledge)."""
    q = params.group.q
    rng = random.Random(77)
    secrets = RepresentationPair.generate(params.group, rng)
    d = 31337
    response = respond(secrets, d, q)
    for _ in range(10):
        candidate_y = Representation(rng.randrange(q), rng.randrange(q))
        implied_x1 = (response.r1 - d * candidate_y.k1) % q
        implied_x2 = (response.r2 - d * candidate_y.k2) % q
        implied = RepresentationPair(x=Representation(implied_x1, implied_x2), y=candidate_y)
        assert respond(implied, d, q) == response
