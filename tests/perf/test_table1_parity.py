"""Table 1 logical operation counts are invariant under the perf engine
and under the bigint backend."""

from __future__ import annotations

import pytest

from repro import perf
from repro.analysis.opcount import measure_table1
from repro.core.protocols import run_payment
from repro.crypto import counters


def _measured(rows):
    return {(row.protocol, row.party): row.measured for row in rows}


@pytest.mark.parametrize("enabled", [True, False])
def test_table1_matches_paper_either_way(enabled):
    with perf.forced(enabled):
        rows = measure_table1()
    for row in rows:
        assert row.matches, (
            f"perf={'on' if enabled else 'off'} {row.protocol}/{row.party}: "
            f"measured {row.measured}, paper {row.paper}"
        )


@pytest.mark.usefixtures("each_backend")
@pytest.mark.parametrize("enabled", [True, False])
def test_one_payment_is_14_exp_and_15_hash(enabled, system, funded_client):
    """bench/layers.py's ``core.exp_per_payment`` / ``core.hash_per_payment``."""
    client, stored = funded_client
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    counter = counters.OpCounter()
    with perf.forced(enabled), counters.counting(counter):
        run_payment(client, stored, system.merchant(merchant_id), system.witness_of(stored), 0)
    assert (counter.exp, counter.hash) == (14, 15)


def test_counts_identical_across_engine_states_and_warm_caches():
    with perf.forced(False):
        naive = _measured(measure_table1())
    with perf.forced(True):
        cold = _measured(measure_table1())
        warm = _measured(measure_table1())  # caches primed by the cold run
    assert cold == naive
    assert warm == naive
