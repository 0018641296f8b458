"""Tests for the Schnorr group wrapper."""

import pytest

from repro.core.params import EMBEDDED_GROUPS, PINNED_DIGESTS
from repro.core.params import test_params as make_test_params
from repro.crypto.counters import OpCounter
from repro.crypto.group import SchnorrGroup, check_parameters, params_digest


@pytest.fixture(scope="module")
def group():
    return make_test_params().group


def test_validate_accepts_embedded_params(group):
    group.validate()  # must not raise


@pytest.mark.parametrize(
    "field",
    ["p", "q", "g"],
)
def test_validate_rejects_corrupted_params(group, field):
    corrupted = {
        "p": group.p,
        "q": group.q,
        "g": group.g,
        "g1": group.g1,
        "g2": group.g2,
    }
    corrupted[field] = corrupted[field] + 1
    with pytest.raises(ValueError):
        SchnorrGroup(**corrupted).validate()


def test_exp_matches_pow_and_counts(group):
    counter = OpCounter()
    with counter:
        result = group.exp(group.g, 12345)
    assert result == pow(group.g, 12345, group.p)
    assert counter.exp == 1


def test_exp_reduces_exponent_mod_q(group):
    assert group.exp(group.g, group.q + 5) == group.exp(group.g, 5)


def test_commit2_is_two_exponentiations(group):
    counter = OpCounter()
    with counter:
        value = group.commit2(group.g1, 3, group.g2, 4)
    assert value == (pow(group.g1, 3, group.p) * pow(group.g2, 4, group.p)) % group.p
    assert counter.exp == 2


def test_mul_and_inv(group):
    element = group.exp(group.g, 7)
    assert group.mul(element, group.inv(element)) == 1
    assert group.mul(element, 1) == element


def test_mul_rejects_empty_product(group):
    with pytest.raises(ValueError):
        group.mul()


def test_validate_memoizes_success(group):
    group.validate()
    assert group._validated
    # A second validation must be a no-op (no Miller-Rabin re-runs); the
    # memo must not leak onto corrupted copies.
    group.validate()
    bad = SchnorrGroup(p=group.p, q=group.q, g=1, g1=group.g1, g2=group.g2)
    with pytest.raises(ValueError):
        bad.validate()
    assert not bad._validated


def test_every_pinned_tuple_passes_the_full_battery():
    """The pins let processes skip the battery, so it runs here instead:
    every pin is an embedded tuple and every embedded tuple validates."""
    digests = {params_digest(*values) for values in EMBEDDED_GROUPS.values()}
    assert digests == PINNED_DIGESTS
    for values in EMBEDDED_GROUPS.values():
        check_parameters(*values)  # must not raise


@pytest.mark.parametrize("name", sorted(EMBEDDED_GROUPS))
@pytest.mark.parametrize("position", [0, 2], ids=["p", "g"])
@pytest.mark.parametrize("bit", [0, 77])
def test_one_bit_off_a_pinned_tuple_is_neither_pinned_nor_accepted(name, position, bit):
    values = list(EMBEDDED_GROUPS[name])
    values[position] ^= 1 << bit
    assert params_digest(*values) not in PINNED_DIGESTS
    p, q, g, g1, g2 = values
    with pytest.raises(ValueError):
        SchnorrGroup(p=p, q=q, g=g, g1=g1, g2=g2).validate(pinned=PINNED_DIGESTS)


def test_scalar_inverse(group):
    value = 123456789 % group.q
    assert (value * group.scalar_inv(value)) % group.q == 1
    with pytest.raises(ZeroDivisionError):
        group.scalar_inv(0)


def test_random_element_in_subgroup(group, rng):
    element = group.random_element(rng)
    assert group.is_element(element)


def test_is_element_rejects_outsiders(group):
    assert not group.is_element(0)
    assert not group.is_element(group.p)
    assert not group.is_element(group.p - 1) or pow(group.p - 1, group.q, group.p) == 1
    # A generator of the full group (order p-1 > q) is not in the subgroup:
    # find a quadratic non-residue-ish element cheaply by trial.
    for candidate in range(2, 50):
        if pow(candidate, group.q, group.p) != 1:
            assert not group.is_element(candidate)
            break
    else:  # pragma: no cover
        pytest.skip("no outsider found in range")


def test_is_element_does_not_count(group):
    counter = OpCounter()
    with counter:
        group.is_element(group.g)
    assert counter.exp == 0


def test_byte_sizes(group):
    assert group.element_bytes() == (group.p.bit_length() + 7) // 8
    assert group.scalar_bytes() == 20  # 160-bit q
