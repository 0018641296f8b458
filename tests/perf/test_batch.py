"""The memoized subgroup-membership predicate."""

from __future__ import annotations

import pytest

from repro.core.params import test_params as make_test_params
from repro.perf.batch import is_subgroup_member


@pytest.fixture(scope="module")
def group():
    return make_test_params().group


def test_subgroup_membership_predicate(group):
    assert is_subgroup_member(group.p, group.q, group.g)
    assert is_subgroup_member(group.p, group.q, pow(group.g1, 12345, group.p))
    assert not is_subgroup_member(group.p, group.q, group.p - 1)  # order 2
    assert not is_subgroup_member(group.p, group.q, 0)
    assert not is_subgroup_member(group.p, group.q, group.p)
