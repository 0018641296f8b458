"""Tests for the Abe-Okamoto partially blind signature scheme."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import test_params as make_test_params
from repro.crypto import blind
from repro.crypto.blind import (
    BlindSession,
    PartiallyBlindSignature,
    PartiallyBlindSigner,
    SignerResponse,
)


@pytest.fixture(scope="module")
def params():
    return make_test_params()


@pytest.fixture(scope="module")
def signer(params):
    return PartiallyBlindSigner(params.group, params.hashes, rng=random.Random(11))


INFO = ("denom", 25, "version", 1)
MESSAGE = (123456789, 987654321)


def run_session(params, signer, info=INFO, message=MESSAGE, rng_seed=42):
    challenge, state = signer.start(info)
    session = BlindSession.start(
        params.group,
        params.hashes,
        signer.public,
        info,
        message,
        challenge,
        random.Random(rng_seed),
    )
    response = signer.respond(state, session.e)
    return session.finish(response)


def test_completeness(params, signer):
    signature = run_session(params, signer)
    assert blind.verify(params.group, params.hashes, signer.public, INFO, MESSAGE, signature)


def test_verify_with_secret_agrees(params, signer):
    signature = run_session(params, signer)
    assert signer.verify_with_secret(INFO, MESSAGE, signature)


def test_wrong_info_rejected(params, signer):
    signature = run_session(params, signer)
    assert not blind.verify(
        params.group, params.hashes, signer.public, ("denom", 26, "version", 1), MESSAGE, signature
    )
    assert not signer.verify_with_secret(("other",), MESSAGE, signature)


def test_wrong_message_rejected(params, signer):
    signature = run_session(params, signer)
    assert not blind.verify(
        params.group, params.hashes, signer.public, INFO, (MESSAGE[0] + 1, MESSAGE[1]), signature
    )


@pytest.mark.parametrize("component", ["rho", "omega", "sigma", "delta"])
def test_tampered_signature_rejected(params, signer, component):
    signature = run_session(params, signer)
    fields = {
        "rho": signature.rho,
        "omega": signature.omega,
        "sigma": signature.sigma,
        "delta": signature.delta,
    }
    fields[component] = (fields[component] + 1) % params.group.q
    tampered = PartiallyBlindSignature(**fields)
    assert not blind.verify(params.group, params.hashes, signer.public, INFO, MESSAGE, tampered)
    assert not signer.verify_with_secret(INFO, MESSAGE, tampered)


def test_out_of_range_signature_rejected(params, signer):
    signature = run_session(params, signer)
    oversized = PartiallyBlindSignature(
        rho=signature.rho + params.group.q,
        omega=signature.omega,
        sigma=signature.sigma,
        delta=signature.delta,
    )
    assert not blind.verify(params.group, params.hashes, signer.public, INFO, MESSAGE, oversized)


SCALARS = ("rho", "omega", "sigma", "delta")


@pytest.mark.parametrize("shift", [1, -1], ids=["plus-q", "minus-q"])
@pytest.mark.parametrize("component", SCALARS)
def test_a_reencoded_scalar_is_refused_by_both_verifiers(params, signer, component, shift):
    """``v + q`` satisfies the equation as ``v`` does — and is another coin key."""
    signature = run_session(params, signer)
    reencoded = dataclasses.replace(
        signature, **{component: getattr(signature, component) + shift * params.group.q}
    )
    assert reencoded != signature
    assert not blind.verify(params.group, params.hashes, signer.public, INFO, MESSAGE, reencoded)
    assert not signer.verify_with_secret(INFO, MESSAGE, reencoded)


@settings(deadline=None)  # example count: the profile's (ci: 2,000)
@given(
    shifts=st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4),
    tamper=st.integers(min_value=0, max_value=1),
)
def test_the_two_verifiers_agree_in_and_out_of_range(params, signer, shifts, tamper):
    """Public check and secret-key shortcut: one verdict, canonical scalars only."""
    q = params.group.q
    signature = run_session(params, signer)
    moved = PartiallyBlindSignature(
        *(getattr(signature, name) + shift * q for name, shift in zip(SCALARS, shifts))
    )
    if tamper:
        moved = dataclasses.replace(moved, sigma=moved.sigma + 1)
    public = blind.verify(params.group, params.hashes, signer.public, INFO, MESSAGE, moved)
    assert signer.verify_with_secret(INFO, MESSAGE, moved) == public
    assert public == (shifts == (0, 0, 0, 0) and not tamper)


def test_bad_signer_response_detected(params, signer):
    challenge, state = signer.start(INFO)
    session = BlindSession.start(
        params.group, params.hashes, signer.public, INFO, MESSAGE, challenge, random.Random(1)
    )
    good = signer.respond(state, session.e)
    bad = SignerResponse(r=(good.r + 1) % params.group.q, c=good.c, s=good.s)
    with pytest.raises(ValueError):
        session.finish(bad)


def test_wrong_signer_key_rejected(params):
    honest = PartiallyBlindSigner(params.group, params.hashes, rng=random.Random(21))
    impostor = PartiallyBlindSigner(params.group, params.hashes, rng=random.Random(22))
    challenge, state = impostor.start(INFO)
    # Client blinds against the honest broker's key but an impostor signs.
    session = BlindSession.start(
        params.group, params.hashes, honest.public, INFO, MESSAGE, challenge, random.Random(2)
    )
    response = impostor.respond(state, session.e)
    with pytest.raises(ValueError):
        session.finish(response)


def test_signatures_unlinkable_across_blindings(params, signer):
    """Blindness, structurally: the signer's view is independent of the output.

    Two sessions with identical info and identical *signer randomness
    cannot* be arranged here (the signer draws fresh nonces), so we check
    the operational consequence: two unblinded signatures on the same
    message from the same signer are distinct and both valid, and the
    blinded challenge ``e`` seen by the signer differs from the unblinded
    ``omega + delta``.
    """
    challenge, state = signer.start(INFO)
    session = BlindSession.start(
        params.group, params.hashes, signer.public, INFO, MESSAGE, challenge, random.Random(3)
    )
    response = signer.respond(state, session.e)
    signature = session.finish(response)
    assert (signature.omega + signature.delta) % params.group.q != session.e % params.group.q
    other = run_session(params, signer, rng_seed=4)
    assert other != signature
    for candidate in (signature, other):
        assert blind.verify(
            params.group, params.hashes, signer.public, INFO, MESSAGE, candidate
        )


def test_blindness_unlinkability_game(params):
    """The Section 6 unlinkability game, played for real.

    The broker runs two withdrawals with the same info; for ANY unblinded
    coin and ANY of its signing transcripts there must exist blinding
    factors (t1..t4) linking them — i.e. each transcript is perfectly
    consistent with each coin, so the broker learns nothing. We verify the
    consistency equations for both pairings of two coins with two
    transcripts.
    """
    group, hashes = params.group, params.hashes
    signer = PartiallyBlindSigner(group, hashes, rng=random.Random(33))
    transcripts = []
    signatures = []
    messages = [(11111, 22222), (33333, 44444)]
    for index, message in enumerate(messages):
        challenge, state = signer.start(INFO)
        session = BlindSession.start(
            group, hashes, signer.public, INFO, message, challenge, random.Random(50 + index)
        )
        response = signer.respond(state, session.e)
        signatures.append(session.finish(response))
        transcripts.append((challenge, session.e, response))

    z = hashes.F(*INFO)
    for sig, message in zip(signatures, messages):
        for challenge, e, response in transcripts:
            # Reconstruct the unique blinding factors that would link them.
            t1 = (sig.rho - response.r) % group.q
            t2 = (sig.omega - response.c) % group.q
            t3 = (sig.sigma - response.s) % group.q
            t4 = (sig.delta - (e - response.c)) % group.q
            alpha = group.mul(challenge.a, group.commit2(group.g, t1, signer.public, t2))
            beta = group.mul(challenge.b, group.commit2(group.g, t3, z, t4))
            epsilon = hashes.H(alpha, beta, z, *message)
            # The linking equation epsilon = e + t2 + t4 must hold for the
            # true pairing AND for the crossed pairing: that is blindness.
            assert epsilon == (e + t2 + t4) % group.q
