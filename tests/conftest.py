"""Shared fixtures: a fast parameter set and pre-wired deployments."""

from __future__ import annotations

import random
import shutil
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.broker import Broker
from repro.core.params import SystemParams, test_params
from repro.core.persistence import (
    BrokerJournal,
    WitnessJournal,
    attach_broker_store,
    broker_spaces,
    witness_spaces,
)
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


def _recovered_dump(store: Store) -> dict[str, dict[str, object]]:
    """What a restart would read: a recovery of a copy of the state dir."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "state"
        shutil.copytree(store.directory, copy)
        recovered = Store(copy, backend=store.backend_kind, shards=store.shard_count)
        try:
            recovered.recover()
            return recovered.dump()
        finally:
            recovered.close()


def journal_divergence(party: object, store: Store) -> str | None:
    """Where ``party``'s live spaces differ from ``store``'s backends or from
    a recovery of its state dir (``None``: they all agree)."""
    if isinstance(party, Broker):
        spaces, names = broker_spaces(party), None  # the store is the broker's alone
    else:
        spaces = witness_spaces(party)  # type: ignore[arg-type]
        names = set(spaces)
    live = {space: dict(table) for space, table in spaces.items() if table}
    for source, dump in (("store", store.dump()), ("recovery", _recovered_dump(store))):
        held = {space: table for space, table in dump.items() if names is None or space in names}
        if held != live:
            differing = sorted(
                space for space in set(held) | set(live) if held.get(space) != live.get(space)
            )
            return f"{type(party).__name__} memory differs from its {source} in {differing}"
    return None


@pytest.fixture(autouse=True)
def journaled_parties_match_their_recovery(
    monkeypatch: pytest.MonkeyPatch,
) -> Iterator[None]:
    """A failed step leaves no trace, in memory or on disk.

    For every broker or witness a test attaches to a store, after each
    operation the store commits or aborts, the party's live spaces must
    equal its store's backends and a recovery of a copy of its state
    dir. A failed store is skipped: its party's memory may hold what the
    disk refused, which is why that party stops. A divergence fails the
    test at teardown (raising inside the store would reach the code
    under test).
    """
    parties: dict[Store, object] = {}
    divergences: list[str] = []

    def watching(journal_class: type) -> None:
        attach = journal_class.__init__

        def init(journal, party, store) -> None:
            attach(journal, party, store)
            parties[store] = party  # a store journals one party

        monkeypatch.setattr(journal_class, "__init__", init)

    def checked(method_name: str) -> None:
        method = getattr(Store, method_name)

        def run(store: Store) -> None:
            method(store)
            party = parties.get(store)
            if party is not None and store.failure is None:
                found = journal_divergence(party, store)
                if found is not None:
                    divergences.append(f"after {method_name}: {found}")

        monkeypatch.setattr(Store, method_name, run)

    watching(BrokerJournal)
    watching(WitnessJournal)
    checked("commit")
    checked("abort")
    yield
    if divergences:
        pytest.fail(divergences[0], pytrace=False)


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
