"""Products of powers equal the product of plain pows."""

from __future__ import annotations

import random

import pytest

from repro.core.params import test_params as make_test_params
from repro.perf import fixed_base
from repro.perf.multiexp import multi_exp


@pytest.fixture(scope="module")
def group():
    return make_test_params().group


def _naive(p, q, pairs):
    out = 1
    for base, exponent in pairs:
        out = out * pow(base, exponent % q, p) % p
    return out


def test_empty_product_raises(group):
    with pytest.raises(ValueError):
        multi_exp(group.p, group.q, ())


def test_single_pair(group):
    pairs = ((group.g, 987654321),)
    assert multi_exp(group.p, group.q, pairs) == _naive(group.p, group.q, pairs)


@pytest.mark.parametrize("n_pairs", [2, 3, 5])
def test_random_products(group, n_pairs):
    rng = random.Random(1000 + n_pairs)
    bases = (group.g, group.g1, group.g2, pow(group.g, 31337, group.p), pow(group.g1, 7, group.p))
    for _ in range(10):
        pairs = tuple(
            (bases[rng.randrange(len(bases))], rng.randrange(group.q)) for _ in range(n_pairs)
        )
        assert multi_exp(group.p, group.q, pairs) == _naive(group.p, group.q, pairs)


def test_edge_exponents(group):
    pairs = (
        (group.g, 0),
        (group.g1, group.q - 1),
        (group.g2, group.q),
        (group.g, 5 * group.q + 3),
    )
    assert multi_exp(group.p, group.q, pairs) == _naive(group.p, group.q, pairs)


@pytest.mark.usefixtures("each_backend")
@pytest.mark.parametrize("n_loose", [1, 2, 3, 4])
def test_loose_bases_beside_tabled_ones(group, n_loose):
    """Bases without a table take one ``powmod`` each beside the table walk."""
    rng = random.Random(4000 + n_loose)
    for base in (group.g, group.g1):
        fixed_base.build(base, group.p, group.q)
    loose = [pow(group.g2, rng.randrange(2, group.q), group.p) for _ in range(n_loose)]
    for _ in range(5):
        pairs = ((group.g, rng.randrange(group.q)), (group.g1, rng.randrange(group.q)))
        pairs += tuple((base, rng.randrange(group.q)) for base in loose)
        assert multi_exp(group.p, group.q, pairs) == _naive(group.p, group.q, pairs)
        assert multi_exp(group.p, group.q, pairs[2:]) == _naive(group.p, group.q, pairs[2:])
    assert fixed_base.table_count() == 2


@pytest.mark.usefixtures("python_backend")
def test_uses_fixed_base_tables_when_available(group):
    """Tabled and untabled evaluation must agree bit for bit, with each
    other and with builtin ``pow``."""
    rng = random.Random(2007)
    products = [((group.g, 123456789), (group.g1, 987654321))]
    products += [
        ((group.g, rng.randrange(group.q)), (group.g1, rng.randrange(group.q))) for _ in range(10)
    ]
    products += [((group.g, 0), (group.g1, group.q - 1)), ((group.g, group.q), (group.g1, 1))]
    # The generators registered when the group validated: keep this pass
    # from promoting them.
    with fixed_base.untabled():
        cold = [multi_exp(group.p, group.q, pairs) for pairs in products]
    assert fixed_base.table_count() == 0
    assert cold == [_naive(group.p, group.q, pairs) for pairs in products]
    for base in (group.g, group.g1):
        fixed_base.register(base, group.p, group.q)
        for _ in range(fixed_base.BUILD_THRESHOLD):
            fixed_base.touch(base, group.p)
    assert fixed_base.table_count() == 2
    assert [multi_exp(group.p, group.q, pairs) for pairs in products] == cold


@pytest.mark.usefixtures("python_backend")
def test_multi_exp_promotes_candidates(group):
    """Bases seen only inside multi-exp equations still earn tables."""
    fixed_base.register(group.g2, group.p, group.q)
    for _ in range(fixed_base.BUILD_THRESHOLD):
        multi_exp(group.p, group.q, ((group.g2, 42), (group.g, 7)))
    assert fixed_base.table_for(group.g2, group.p) is not None


@pytest.mark.usefixtures("gmp_backend")
def test_multi_exp_builds_tables_under_gmp(group):
    """Under gmp, tabled bases walk one GMP accumulator and the rest take
    one ``powmod`` each; both agree with builtin ``pow``."""
    loose = group.g * group.g1 % group.p  # never registered
    pairs = ((group.g2, 42), (loose, 5 * group.q + 7), (group.g1, 0))
    fixed_base.register(group.g2, group.p, group.q)
    for _ in range(fixed_base.BUILD_THRESHOLD + 1):
        assert multi_exp(group.p, group.q, pairs) == _naive(group.p, group.q, pairs)
    assert fixed_base.table_count() == 1
    assert fixed_base.table_for(group.g2, group.p) is not None
