"""Table 1 logical operation counts equal the paper's constants whatever
state the engine is in — cold after ``perf.reset()``, fixed-base tables built,
every memo warm — and under every bigint backend."""

from __future__ import annotations

import pytest

from repro import perf
from repro.analysis.opcount import measure_table1
from repro.core.protocols import run_payment, run_withdrawal
from repro.crypto import counters


@pytest.mark.parametrize("warm", [True, False])
def test_table1_matches_paper_either_way(warm):
    if warm:
        measure_table1()  # same seed: every verification below is a memo hit
    for row in measure_table1():
        assert row.matches, (
            f"{'warm' if warm else 'cold'} {row.protocol}/{row.party}: "
            f"measured {row.measured}, paper {row.paper}"
        )


@pytest.mark.usefixtures("each_backend")
@pytest.mark.parametrize("warm", [True, False])
def test_one_payment_is_14_exp_and_15_hash(warm, system, funded_client):
    """bench/layers.py's ``core.exp_per_payment`` / ``core.hash_per_payment``."""
    client, stored = funded_client

    def pay(coin):
        merchant_id = next(m for m in system.merchant_ids if m != coin.coin.witness_id)
        run_payment(client, coin, system.merchant(merchant_id), system.witness_of(coin), 0)

    if warm:
        pay(run_withdrawal(client, system.broker, system.standard_info(25, now=0)))
    else:
        perf.reset()
    counter = counters.OpCounter()
    with counters.counting(counter):
        pay(stored)
    assert (counter.exp, counter.hash) == (14, 15)


@pytest.mark.usefixtures("each_backend")
def test_counts_identical_across_engine_states_and_warm_caches():
    """Every backend builds fixed-base tables: none exist before the
    first run, they are built during it, and the second run finds them
    and every memo warm."""
    assert perf.cache_stats()["fixed-base-tables"] == 0
    cold = measure_table1()
    assert perf.cache_stats()["fixed-base-tables"] > 0
    warm = measure_table1()
    paper = [row.paper for row in cold]
    assert [row.measured for row in cold] == paper
    assert [row.measured for row in warm] == paper


@pytest.mark.usefixtures("each_backend")
@pytest.mark.parametrize("when", ["early", "late", "implicit"])
def test_withdrawal_is_12_4_0_1_whenever_step_two_is_prepared(when, system):
    """A socket transport runs ``prepare_withdrawal`` before the broker's
    ``(a, b)`` arrive, the sim after, a caller without one never names
    it: the same Table 1 row each time, and the broker's 3 / 1 beside it."""
    client, broker = system.new_client(), system.broker
    info = system.standard_info(25, now=0)
    mine, theirs = counters.OpCounter(), counters.OpCounter()
    prepared = None if when == "implicit" else client.prepare_withdrawal(info)
    if when == "early":
        with mine:
            prepared()
    with theirs:
        ticket, challenge = broker.begin_withdrawal(info)
    assert theirs.snapshot() == (3, 1, 0, 0)
    with mine:
        session = client.begin_withdrawal(info, challenge, prepared)
    response = broker.complete_withdrawal(ticket, session.e)
    with mine:
        stored = client.finish_withdrawal(session, response, broker.tables[info.list_version])
    assert mine.snapshot() == (12, 4, 0, 1)
    assert stored.coin.bare.verify_signature(system.params, broker.blind_public)
