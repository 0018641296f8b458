"""The one engine against the naive formulas it replaced.

``tests/reference/naive_crypto.py`` holds the builtin-``pow`` bodies the
perf engine's off state used to select. Every property here runs the live code
and the reference on the same input and demands the same integer or the
same verdict, under each bigint backend this machine has, from both
states an engine can be in: *cold* (``perf.reset()``: no table and no
memo; a registered base takes one ``powmod`` a use until its
``BUILD_THRESHOLD``-th use builds its table) and *warm* (every recurring
base used ``BUILD_THRESHOLD + 1`` times first, so each has the backend's
fixed-base table: ``int`` rows under python, GMP memory under ``gmp``).
The state is drawn per example, so a failure replays with it.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro import perf
from repro.core.params import test_params as make_test_params
from repro.crypto import blind, schnorr
from repro.crypto.blind import BlindSession, PartiallyBlindSignature, PartiallyBlindSigner
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature
from repro.perf.batch import _claim_holds
from repro.perf.fixed_base import BUILD_THRESHOLD
from tests.reference import naive_crypto as reference

pytestmark = pytest.mark.usefixtures("each_backend")

PARAMS = make_test_params()
GROUP = PARAMS.group
HASHES = PARAMS.hashes
P, Q = GROUP.p, GROUP.q

INFO = ("denom", 25, "version", 1)
MESSAGE = (123456789, 987654321)


@pytest.fixture(scope="module")
def keypairs():
    return [SchnorrKeyPair.generate(GROUP, random.Random(seed)) for seed in (5, 6, 7)]


@pytest.fixture(scope="module")
def signer():
    return PartiallyBlindSigner(GROUP, HASHES, rng=random.Random(11))


@pytest.fixture(scope="module")
def coin_signatures(signer):
    out = []
    for seed in (42, 43, 44):
        challenge, state = signer.start(INFO)
        session = BlindSession.start(
            GROUP, HASHES, signer.public, INFO, MESSAGE, challenge, random.Random(seed)
        )
        out.append(session.finish(signer.respond(state, session.e)))
    return out


def _enter(warm: bool, *recurring: int) -> None:
    """Put the engine in the drawn state before an example runs."""
    if not warm:
        perf.reset()
        return
    for base in (GROUP.g, GROUP.g1, GROUP.g2, *recurring):
        perf.register(base, P, Q)
        for _ in range(BUILD_THRESHOLD + 1):
            perf.fpow(base, 1, P, Q)
        assert perf.table_for(base, P) is not None


def _not_elements(public: int) -> list[int]:
    """Outside ``[1, p)``, or of order 2."""
    return [0, P, P + public, P - 1]


def _order_2q(public: int) -> int:
    """``-X``: in range, outside the order-``q`` subgroup."""
    return public * (P - 1) % P


_exponents = st.one_of(
    st.sampled_from([0, 1, 2, Q - 1, Q, Q + 1, 3 * Q + 17, -1, -Q]),
    st.integers(-Q, 3 * Q),
)
_parts = st.lists(st.one_of(st.integers(0, 2**64), st.text(max_size=8)), max_size=3).map(tuple)
_bit = st.integers(0, Q.bit_length() - 1)


def _bases(keypairs) -> st.SearchStrategy[int]:
    """Tabled generators and keys, subgroup elements no table knows, and
    residues outside the subgroup."""
    fixed = [GROUP.g, GROUP.g1, GROUP.g2, *(pair.public for pair in keypairs)]
    return st.one_of(
        st.sampled_from(fixed),
        st.integers(1, Q - 1).map(lambda r: pow(GROUP.g, r, P)),
        st.sampled_from([0, 1, P - 1]),
        st.integers(0, P - 1),
    )


@given(data=st.data(), warm=st.booleans(), exp_a=_exponents, exp_b=_exponents)
def test_exp_and_commit2_are_the_naive_integers(keypairs, data, warm, exp_a, exp_b):
    base_a = data.draw(_bases(keypairs))
    base_b = data.draw(_bases(keypairs))
    _enter(warm, *(pair.public for pair in keypairs))
    assert GROUP.exp(base_a, exp_a) == reference.exp(GROUP, base_a, exp_a)
    assert GROUP.commit2(base_a, exp_a, base_b, exp_b) == reference.commit2(
        GROUP, base_a, exp_a, base_b, exp_b
    )


@given(warm=st.booleans(), key_seed=st.integers(0, 2**32), sign_seed=st.integers(0, 2**32), parts=_parts)
def test_keys_and_seeded_signatures_are_the_naive_integers(warm, key_seed, sign_seed, parts):
    _enter(warm)
    pair = SchnorrKeyPair.generate(GROUP, random.Random(key_seed))
    assert pair.public == reference.public_key(GROUP, pair.secret)
    assert PartiallyBlindSigner(GROUP, HASHES, secret=pair.secret).public == pair.public
    signature = pair.sign(*parts, rng=random.Random(sign_seed))
    assert signature == reference.schnorr_sign(
        GROUP, pair.secret, pair.public, *parts, rng=random.Random(sign_seed)
    )
    assert reference.schnorr_verify(GROUP, pair.public, signature, *parts)


@given(
    warm=st.booleans(),
    which=st.integers(0, 2),
    sign_seed=st.integers(0, 2**32),
    parts=_parts,
    tamper=st.sampled_from(
        [
            "valid", "e-bit", "s-bit", "e-range", "s-range", "message", "other-key",
            "not-an-element", "non-member",
        ]
    ),
    bit=_bit,
    pick=st.integers(0, 3),
)
def test_schnorr_verdicts_are_the_naive_verdicts(
    keypairs, warm, which, sign_seed, parts, tamper, bit, pick
):
    pair = keypairs[which]
    public = pair.public
    signature = pair.sign(*parts, rng=random.Random(sign_seed))
    e, s = signature.e, signature.s
    if tamper == "e-bit":
        e ^= 1 << bit
    elif tamper == "s-bit":
        s ^= 1 << bit
    elif tamper == "e-range":
        e += Q
    elif tamper == "s-range":
        s = (Q, s + Q)[pick % 2]
    elif tamper == "message":
        parts = (*parts, "appended")
    elif tamper == "other-key":
        public = keypairs[(which + 1) % 3].public
    elif tamper == "not-an-element":
        public = _not_elements(public)[pick]
    signature = SchnorrSignature(e=e, s=s)
    if tamper == "non-member":
        # Signed *under* -X, so the challenge binds it: g^s (-X)^(q-e) is
        # the signer's commitment whenever e is odd, and only the
        # membership check stands between this key and acceptance.
        public = _order_2q(public)
        signature = reference.schnorr_sign(
            GROUP, pair.secret, public, *parts, rng=random.Random(sign_seed)
        )
    _enter(warm, *(pair.public for pair in keypairs))
    expected = reference.schnorr_verify(GROUP, public, signature, *parts)
    assert expected == (tamper == "valid")
    assert schnorr.verify(GROUP, public, signature, *parts) == expected
    ok, claim = schnorr.check(GROUP, public, signature, *parts)
    assert ok == expected
    if ok:  # the claim bench/layers.py certifies: the recovery, on builtin pow
        assert claim is not None and _claim_holds(P, Q, claim)


@given(
    warm=st.booleans(),
    which=st.integers(0, 2),
    tamper=st.sampled_from(["valid", "bit", "range", "info", "message", "foreign-key"]),
    component=st.sampled_from(["rho", "omega", "sigma", "delta"]),
    bit=_bit,
    pick=st.integers(0, 4),
)
def test_blind_verdicts_are_the_naive_verdicts(
    signer, coin_signatures, warm, which, tamper, component, bit, pick
):
    fields = dict(coin_signatures[which].encoded_parts())
    public, info, message = signer.public, INFO, MESSAGE
    if tamper == "bit":
        fields[component] ^= 1 << bit
    elif tamper == "range":
        fields[component] += Q
    elif tamper == "info":
        info = (*INFO, "appended")
    elif tamper == "message":
        message = (MESSAGE[0], MESSAGE[1] + 1)
    elif tamper == "foreign-key":
        public = [*_not_elements(public), _order_2q(public)][pick]
    signature = PartiallyBlindSignature(**fields)
    _enter(warm, signer.public)
    expected = reference.blind_verify(GROUP, HASHES, public, info, message, signature)
    # The verifier's own configured key is not membership-checked, by
    # either side: p + y verifies, and -y does when omega is even.
    if tamper != "foreign-key":
        assert expected == (tamper == "valid")
    assert blind.verify(GROUP, HASHES, public, info, message, signature) == expected
    assert blind.check(GROUP, HASHES, public, info, message, signature) == expected
    if tamper != "foreign-key":  # the broker's 3-Exp shortcut knows one key: its own
        assert signer.verify_with_secret(info, message, signature) == expected


@given(
    warm=st.booleans(),
    signer_seed=st.integers(0, 2**32),
    client_seed=st.integers(0, 2**32),
    info=_parts,
    message=st.tuples(st.integers(1, P - 1), st.integers(1, P - 1)),
)
def test_a_prepared_blinding_is_the_one_piece_start(warm, signer_seed, client_seed, info, message):
    """``prepare`` early, late or never: the same ``e``, factors and coin
    signature as the single body ``start`` used to be."""
    broker = PartiallyBlindSigner(GROUP, HASHES, rng=random.Random(signer_seed))
    challenge, state = broker.start(info)
    _enter(warm, broker.public)
    expected_e, expected_factors = reference.blind_start(
        GROUP, HASHES, broker.public, info, message, challenge, random.Random(client_seed)
    )
    early = BlindSession.prepare(GROUP, HASHES, broker.public, info, random.Random(client_seed))
    sessions = [
        BlindSession.start(
            GROUP, HASHES, broker.public, info, message, challenge, prepared=early
        ),
        BlindSession.start(
            GROUP, HASHES, broker.public, info, message, challenge, random.Random(client_seed)
        ),
    ]
    response = broker.respond(state, expected_e)
    expected = reference.blind_unblind(GROUP, expected_e, expected_factors, response)
    assert reference.blind_verify(GROUP, HASHES, broker.public, info, message, expected)
    for session in sessions:
        assert session.e == expected_e
        blinding = session._blinding
        assert (blinding.t1, blinding.t2, blinding.t3, blinding.t4) == expected_factors
        assert session.finish(response) == expected
