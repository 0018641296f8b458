"""Every backend's fixed-base table against builtin ``pow``.

``backend.FixedBaseTable`` is ``int`` rows under python and ``mpz_t``
rows in one ctypes block under gmp. Each property
runs under every backend this machine has: a table's ``pow``, the
one-accumulator ``table_product`` and ``perf.multi_exp`` over tabled and
loose bases must give builtin ``pow``'s integer, at every window up to
the default 8 bits, on registry-built tables of both groups and from
tables promoted by eight threads at once; tables are dropped and rebuilt
across a backend switch, and the bases they served stay promoted; and
200 built-and-evicted tables give their memory back.
"""

import gc
import os
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.core.params import default_params, test_params as make_test_params
from repro.crypto import backend
from repro.perf import fixed_base

GROUP = make_test_params().group
P, Q = GROUP.p, GROUP.q

EDGE_EXPONENTS = [0, 1, Q - 1, Q, Q + 1, 2**160 - 1, -1, -Q]
_exponents = st.one_of(st.sampled_from(EDGE_EXPONENTS), st.integers(0, 2**200))
_bases = st.one_of(
    st.sampled_from([0, 1, 2, P - 1, P, P + 1, 3 * P + 5, GROUP.g, GROUP.g1, GROUP.g2]),
    st.integers(0, 3 * P),
)


@pytest.fixture(autouse=True)
def _cold_engine():
    perf.reset()
    yield
    perf.reset()


@pytest.mark.usefixtures("each_backend")
@settings(deadline=None)
@given(base=_bases, window=st.integers(1, 8), exponents=st.lists(_exponents, min_size=1, max_size=4))
def test_a_table_walk_is_builtin_pow(base, window, exponents):
    table = backend.FixedBaseTable(base, P, Q, window=window)
    for exponent in exponents:
        assert table.pow(exponent) == pow(base, exponent % Q, P)


#: The 512-bit test group and the paper's 1024-bit group.
BOTH_GROUPS = (GROUP, default_params().group)


def _edge_exponents(group, seed):
    rng = random.Random(seed)
    q = group.q
    return [0, 1, q - 1, q, q + 1, 2**160 - 1, -1, -q] + [rng.randrange(q) for _ in range(20)]


@pytest.mark.usefixtures("each_backend")
def test_edge_exponents_on_the_default_window():
    """On registry-built tables, at the 8-bit window both backends take."""
    for group in BOTH_GROUPS:
        exponents = _edge_exponents(group, 32)
        for base in (group.g, 1, group.p + 7):
            table = fixed_base.build(base, group.p, group.q)
            assert table.window == 8
            expected = [pow(base, e % group.q, group.p) for e in exponents]
            assert [table.pow(e) for e in exponents] == expected


@pytest.mark.usefixtures("each_backend")
def test_one_accumulator_over_registry_built_default_tables():
    for group in BOTH_GROUPS:
        p, q = group.p, group.q
        bases = [group.g, group.g1, group.g2, p + 3]
        tables = [fixed_base.build(base, p, q) for base in bases]
        exponents = _edge_exponents(group, 33)
        for start in range(0, len(exponents), len(bases)):
            chunk = exponents[start : start + len(bases)]
            expected = 1
            for base, exponent in zip(bases, chunk):
                expected = expected * pow(base, exponent % q, p) % p
            assert backend.table_product(list(zip(tables, chunk))) == expected


@pytest.mark.usefixtures("each_backend")
@settings(deadline=None)
@given(exponents=st.lists(_exponents, min_size=0, max_size=4), window=st.integers(1, 8))
def test_one_accumulator_over_several_tables(exponents, window):
    bases = [GROUP.g, GROUP.g1, GROUP.g2, P + 3][: len(exponents)]
    tables = [backend.FixedBaseTable(base, P, Q, window=window) for base in bases]
    expected = 1
    for base, exponent in zip(bases, exponents):
        expected = expected * pow(base, exponent % Q, P) % P
    assert backend.table_product(list(zip(tables, exponents))) == expected


@pytest.mark.usefixtures("each_backend")
@settings(deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["g", "g1", "g2", "loose", "big"]), _exponents),
        min_size=1,
        max_size=5,
    ),
    warm=st.booleans(),
)
def test_multi_exp_mixing_tabled_and_loose_bases(pairs, warm):
    named = {
        "g": GROUP.g,
        "g1": GROUP.g1,
        "g2": GROUP.g2,
        "loose": pow(GROUP.g, 31337, P),
        "big": P + GROUP.g2,  # reduces to a tabled base
    }
    perf.reset()
    if warm:
        for base in (GROUP.g, GROUP.g1, GROUP.g2):
            fixed_base.build(base, P, Q)
    concrete = [(named[name], exponent) for name, exponent in pairs] + [(GROUP.g1, 0)]
    expected = 1
    for base, exponent in concrete:
        expected = expected * pow(base, exponent % Q, P) % P
    assert perf.multi_exp(P, Q, concrete) == expected


def test_tables_are_dropped_and_rebuilt_across_a_backend_switch():
    """``g`` is registered once: a table dropped on a switch comes back on
    its base's next uses, without the base being registered again."""
    if len(backend.available()) < 2:
        pytest.skip("this host has one backend; nothing to switch to")
    previous = backend.name()
    exponent = 0xC0FFEE << 100
    perf.register(GROUP.g, P, Q)
    try:
        for name in backend.available() + backend.available()[:1]:
            backend.set_backend(name)
            assert fixed_base.table_count() == 0
            uses = range(fixed_base.BUILD_THRESHOLD + 2)
            results = [perf.fpow(GROUP.g, exponent + k, P, Q) for k in uses]
            assert results == [pow(GROUP.g, (exponent + k) % Q, P) for k in uses]
            table = perf.table_for(GROUP.g, P)
            assert isinstance(table, backend.FixedBaseTable)
            assert perf.multi_exp(P, Q, [(GROUP.g, exponent), (GROUP.g1, 5)]) == (
                pow(GROUP.g, exponent % Q, P) * pow(GROUP.g1, 5, P) % P
            )
    finally:
        backend.set_backend(previous)


@pytest.mark.usefixtures("each_backend")
def test_eight_threads_promote_and_walk_one_cold_table():
    """Threads promote each round's fresh base at once — several may build
    it, and every walk may meet a table another thread just entered — with
    a switch interval short enough that a thread is preempted between any
    two foreign calls."""
    rng = random.Random(8)
    rounds = [
        (pow(GROUP.g, rng.randrange(2, Q), P), [rng.randrange(Q) for _ in range(12)])
        for _ in range(6)
    ]
    expected = [[pow(base, e, P) for e in exponents] for base, exponents in rounds]
    wrong: list[object] = []
    start = threading.Barrier(8, timeout=60.0)

    def worker(offset: int) -> None:
        try:
            for index, (base, exponents) in enumerate(rounds):
                start.wait()
                for k in range(len(exponents)):
                    pick = (k + offset) % len(exponents)
                    if perf.fpow(base, exponents[pick], P, Q) != expected[index][pick]:
                        wrong.append((index, pick))
                start.wait()
        except Exception as error:  # noqa: BLE001 - a failed walk is a wrong result
            wrong.append(error)
            start.abort()

    for base, _ in rounds:
        perf.register(base, P, Q)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert all(perf.table_for(base, P) is not None for base, _ in rounds)


def _resident_bytes() -> int:
    pages = Path("/proc/self/statm").read_text().split()[1]
    return int(pages) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
@pytest.mark.usefixtures("gmp_backend")
def test_evicted_tables_give_their_memory_back():
    """200 tables through a full LRU: resident memory holds still. A
    1024-bit table is ~717 KB, so keeping the evicted ones would show as
    ~140 MB."""
    group = default_params().group
    bases = [pow(group.g, k, group.p) for k in range(2, 2 + fixed_base.MAX_TABLES + 200)]
    for base in bases[: fixed_base.MAX_TABLES]:
        fixed_base.build(base, group.p, group.q)
    gc.collect()
    before = _resident_bytes()
    for base in bases[fixed_base.MAX_TABLES :]:
        assert fixed_base.build(base, group.p, group.q).pow(12345) == pow(base, 12345, group.p)
    gc.collect()
    assert fixed_base.table_count() == fixed_base.MAX_TABLES
    assert _resident_bytes() - before < 20 * 2**20


def test_a_host_whose_libgmp_loads_offers_the_gmp_backend():
    """The binding's self-test walks a small table beside ``mpz_powm``; a
    wrong table must not pass for a missing library, which would leave
    every gmp test here skipped and the process silently on python."""
    try:
        backend._bind_libgmp()
    except (ImportError, OSError, AttributeError):
        pytest.skip("libgmp does not load on this host")
    assert backend.BACKEND_GMP in backend.available()
