"""Shared fixtures: a fast parameter set and pre-wired deployments."""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.broker import Broker
from repro.core.params import SystemParams, test_params
from repro.core.persistence import attach_broker_store, broker_spaces
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto import backend, counters
from repro.store import Store

#: ``--hypothesis-profile ci``: what CI runs the codec and bigint-backend
#: differentials with.
settings.register_profile("ci", max_examples=2000, deadline=None)

MERCHANTS = ("alice-books", "bob-news", "carol-games", "dave-music")


@pytest.fixture(scope="session")
def params() -> SystemParams:
    """The 512-bit test group (same code paths, fast)."""
    return test_params()


def _switched_to(requested: str) -> Iterator[None]:
    previous = backend.name()
    backend.set_backend(requested)
    yield
    backend.set_backend(previous)


@pytest.fixture(params=backend.available())
def each_backend(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """Run the test once per bigint backend this machine has.

    The backend is switched in this process and exported as
    ``REPRO_BACKEND`` so daemons the test spawns follow it.
    """
    monkeypatch.setenv("REPRO_BACKEND", request.param)
    yield from _switched_to(request.param)


@pytest.fixture()
def python_backend() -> Iterator[None]:
    """The backend whose tables are ``int`` rows and whose loose bases take
    builtin ``pow``, whatever ``auto`` chose."""
    yield from _switched_to(backend.BACKEND_PYTHON)


@pytest.fixture()
def gmp_backend() -> Iterator[None]:
    """The ctypes backend: tables in GMP memory, one ``mpz_powm`` per loose base."""
    if backend.BACKEND_GMP not in backend.available():
        pytest.skip("libgmp is not loadable on this host")
    yield from _switched_to(backend.BACKEND_GMP)


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


def save_broker_state(broker: Broker, state_dir: Path) -> None:
    """Leave ``broker``'s whole state in a store at ``state_dir``, as a
    journaling broker process has by the time it dies."""
    store = Store(state_dir, backend="memory", shards=1)
    with store.operation():
        for space, table in broker_spaces(broker).items():
            for key, value in table.items():
                store.put(space, key, value)
    store.close()


@pytest.fixture()
def recover_broker(params: SystemParams) -> Iterator[Callable[..., Broker]]:
    """``recover_broker(store_or_state_dir)``: what a restarting broker
    process does — a blank broker, recovered from the store and journaling
    to it from then on. Stores opened here are closed at teardown."""
    opened: list[Store] = []

    def recover(source: Store | Path) -> Broker:
        store = source
        if not isinstance(store, Store):
            store = Store(source, backend="memory", shards=1)
            opened.append(store)
        with counters.suppressed():
            broker = Broker(params)
        attach_broker_store(broker, store)
        return broker

    yield recover
    for store in opened:
        store.close()


def other_merchant(system: EcashSystem, witness_id: str) -> str:
    """Any merchant other than the given witness."""
    return next(m for m in system.merchant_ids if m != witness_id)
