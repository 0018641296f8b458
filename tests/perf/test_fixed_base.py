"""Fixed-base tables: correctness properties and lazy promotion.

The table is the active backend's (``backend.FixedBaseTable``): GMP
memory under the default ``gmp`` backend, ``int`` rows under python.
``tests/crypto/test_fixed_base_table.py`` holds every backend's table to
builtin ``pow``."""

from __future__ import annotations

import random

import pytest

from repro import perf
from repro.core.params import test_params as make_test_params
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto import backend
from repro.crypto.schnorr import SchnorrKeyPair
from repro.perf import fixed_base
from repro.perf.fixed_base import BUILD_THRESHOLD, MAX_TABLES


@pytest.fixture(scope="module")
def group():
    return make_test_params().group


class TestFixedBaseTable:
    def test_matches_builtin_pow_on_random_exponents(self, group):
        table = backend.FixedBaseTable(group.g, group.p, group.q)
        rng = random.Random(7)
        for _ in range(25):
            e = rng.randrange(group.q)
            assert table.pow(e) == pow(group.g, e, group.p)

    @pytest.mark.parametrize("exponent_name", ["zero", "one", "q_minus_1", "q", "above_q"])
    def test_edge_exponents(self, group, exponent_name):
        exponent = {
            "zero": 0,
            "one": 1,
            "q_minus_1": group.q - 1,
            "q": group.q,
            "above_q": 3 * group.q + 17,
        }[exponent_name]
        table = backend.FixedBaseTable(group.g1, group.p, group.q)
        assert table.pow(exponent) == pow(group.g1, exponent % group.q, group.p)

    def test_nondefault_windows(self, group):
        for window in (1, 4, 11):
            table = backend.FixedBaseTable(group.g2, group.p, group.q, window=window)
            assert table.pow(12345) == pow(group.g2, 12345, group.p)

    def test_rejects_bad_window_and_moduli(self, group):
        with pytest.raises(ValueError):
            backend.FixedBaseTable(group.g, group.p, group.q, window=0)
        with pytest.raises(ValueError):
            backend.FixedBaseTable(group.g, group.p, group.q, window=17)
        with pytest.raises(ValueError):
            backend.FixedBaseTable(group.g, 1, group.q)
        with pytest.raises(ValueError):
            backend.FixedBaseTable(group.g, group.p, 0)


class TestRegistry:
    def test_fpow_without_registration_falls_back(self, group):
        assert fixed_base.fpow(group.g, 42, group.p, group.q) == pow(group.g, 42, group.p)
        assert fixed_base.table_count() == 0

    @pytest.mark.usefixtures("python_backend")
    def test_registered_base_promotes_after_threshold(self, group):
        fixed_base.register(group.g, group.p, group.q)
        for i in range(BUILD_THRESHOLD):
            assert fixed_base.table_count() == 0, f"built too early on use {i}"
            result = fixed_base.fpow(group.g, 1000 + i, group.p, group.q)
            assert result == pow(group.g, 1000 + i, group.p)
        assert fixed_base.table_count() == 1
        assert fixed_base.table_for(group.g, group.p) is not None

    @pytest.mark.usefixtures("python_backend")
    def test_touch_counts_uses_across_call_sites(self, group):
        """multi-exp style lookups promote candidates just like fpow."""
        fixed_base.register(group.g1, group.p, group.q)
        for _ in range(BUILD_THRESHOLD - 1):
            assert fixed_base.touch(group.g1, group.p) is None
        table = fixed_base.touch(group.g1, group.p)
        assert isinstance(table, backend.FixedBaseTable)
        assert table.pow(99) == pow(group.g1, 99, group.p)

    @pytest.mark.usefixtures("gmp_backend")
    def test_a_table_is_built_under_gmp(self, group):
        fixed_base.register(group.g, group.p, group.q)
        for i in range(BUILD_THRESHOLD + 1):
            result = fixed_base.fpow(group.g, 1000 + i, group.p, group.q)
            assert result == pow(group.g, 1000 + i, group.p)
        table = fixed_base.table_for(group.g, group.p)
        assert isinstance(table, backend.FixedBaseTable)
        assert fixed_base.touch(group.g, group.p) is table
        assert fixed_base.build(group.g2, group.p, group.q).pow(77) == pow(group.g2, 77, group.p)
        assert fixed_base.table_count() == 2

    def test_unregistered_base_never_builds(self, group):
        for _ in range(BUILD_THRESHOLD + 2):
            assert fixed_base.touch(group.g2, group.p) is None
        assert fixed_base.table_count() == 0

    @pytest.mark.usefixtures("python_backend")
    def test_lru_eviction_bounds_table_count(self):
        # A toy prime keeps MAX_TABLES+ builds cheap; correctness of the
        # table math is covered above on the real group.
        p, q = 2879, 1439  # p = 2q + 1, both prime
        bases = [pow(5, 2 * k + 2, p) for k in range(MAX_TABLES + 4)]
        for base in bases:
            fixed_base.register(base, p, q)
            for _ in range(BUILD_THRESHOLD):
                fixed_base.fpow(base, 7, p, q)
        assert fixed_base.table_count() == MAX_TABLES
        # The oldest tables were evicted, the newest survive.
        assert fixed_base.table_for(bases[0], p) is None
        assert fixed_base.table_for(bases[-1], p) is not None

    def test_candidate_registry_is_bounded(self):
        p, q = 2879, 1439
        for base in range(2, 2 + fixed_base.MAX_CANDIDATES + 50):
            fixed_base.register(base, p, q)
        assert len(fixed_base._candidates) <= fixed_base.MAX_CANDIDATES


class TestNoTableBeforeServing:
    """Deriving keys and publishing the witness table build no table; the
    first protocol operations that use a base build its table."""

    @pytest.mark.usefixtures("each_backend")
    def test_a_fresh_system_holds_no_table(self):
        params = make_test_params()
        group = params.group
        # As in a fresh process, where validating the group registers them.
        for generator in (group.g, group.g1, group.g2):
            fixed_base.register(generator, group.p, group.q)
        system = EcashSystem(params=params, seed=5)
        assert perf.cache_stats()["fixed-base-tables"] == 0
        run_withdrawal(system.new_client(), system.broker, system.standard_info(25, now=0))
        assert perf.cache_stats()["fixed-base-tables"] >= 1

    @pytest.mark.usefixtures("each_backend")
    def test_generating_keys_builds_no_table(self, group):
        rng = random.Random(11)
        fixed_base.register(group.g, group.p, group.q)
        keys = [SchnorrKeyPair.generate(group, rng) for _ in range(5)]
        assert perf.cache_stats()["fixed-base-tables"] == 0
        assert all(key.public == pow(group.g, key.secret, group.p) for key in keys)
        # Each public key is a candidate: its third use builds its table.
        for k in range(BUILD_THRESHOLD):
            fixed_base.fpow(keys[0].public, k + 2, group.p, group.q)
        assert fixed_base.table_for(keys[0].public, group.p) is not None

    def test_untabled_uses_neither_count_nor_build(self, group):
        fixed_base.register(group.g1, group.p, group.q)
        with fixed_base.untabled():
            for k in range(BUILD_THRESHOLD + 2):
                assert fixed_base.fpow(group.g1, k, group.p, group.q) == pow(group.g1, k, group.p)
        assert fixed_base.table_count() == 0
        for k in range(BUILD_THRESHOLD):
            fixed_base.fpow(group.g1, k, group.p, group.q)
        table = fixed_base.table_for(group.g1, group.p)
        assert table is not None
        with fixed_base.untabled():
            assert fixed_base.touch(group.g1, group.p) is table
