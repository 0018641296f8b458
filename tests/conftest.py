"""Shared fixtures: a fast parameter set and pre-wired deployments."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.params import SystemParams, test_params
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem

#: ``--hypothesis-profile ci``: what CI runs the codec differential with.
settings.register_profile("ci", max_examples=2000, deadline=None)

MERCHANTS = ("alice-books", "bob-news", "carol-games", "dave-music")


@pytest.fixture(scope="session")
def params() -> SystemParams:
    """The 512-bit test group (same code paths, fast)."""
    return test_params()


@pytest.fixture()
def system(params: SystemParams) -> EcashSystem:
    """A fresh four-merchant deployment with deterministic randomness."""
    return EcashSystem(merchant_ids=MERCHANTS, params=params, seed=1234)


@pytest.fixture()
def rng() -> random.Random:
    """A seeded RNG for tests that need their own randomness."""
    return random.Random(99)


@pytest.fixture()
def funded_client(system: EcashSystem):
    """A client holding one freshly withdrawn 25-cent coin."""
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    return client, stored


def other_merchant(system: EcashSystem, witness_id: str) -> str:
    """Any merchant other than the given witness."""
    return next(m for m in system.merchant_ids if m != witness_id)
