"""Tests for the experiment harnesses (Table 1/2, rounds, stats, tables)."""

import pytest

from repro.analysis.opcount import (
    PAPER_TABLE1,
    measure_double_spend_deltas,
    measure_table1,
    render_table1,
)
from repro.analysis.payment_bench import (
    PAPER_ROUNDS,
    ad_comparison,
    compute_vs_network,
    measure_message_rounds,
    run_payment_trials,
)
from repro.analysis.stats import Summary, mean, stdev
from repro.analysis.tables import render_table
from repro.core.params import test_params as make_test_params


class TestStats:
    def test_mean_stdev(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert stdev([2.0, 4.0]) == pytest.approx(2.0**0.5)
        assert stdev([5.0]) == 0.0
        with pytest.raises(ValueError):
            mean([])

    def test_summary(self):
        summary = Summary.of([10.0, 20.0, 30.0])
        assert summary.n == 3
        assert summary.mean == 20.0
        assert summary.minimum == 10.0
        assert "avg 20ms" in summary.format_ms()


class TestTables:
    def test_render(self):
        text = render_table("Title", ["A", "B"], [["1", "22"], ["333", "4"]])
        assert "Title" in text
        assert "| 333 | 4" in text

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            render_table("T", ["A"], [["1", "2"]])


class TestTable1:
    def test_every_row_matches_paper(self):
        rows = measure_table1()
        assert len(rows) == len(PAPER_TABLE1)
        for row in rows:
            assert row.matches, f"{row.protocol}/{row.party}: {row.measured} != {row.paper}"

    def test_render(self):
        text = render_table1(measure_table1())
        assert "Withdrawal" in text and "12" in text

    def test_double_spend_deltas(self):
        deltas = measure_double_spend_deltas()
        happy_merchant = PAPER_TABLE1[("Payment", "Merchant")]
        # Section 7: merchant does 2 additional exponentiations and one
        # fewer signature verification.
        assert deltas["Merchant"]["Exp"] == happy_merchant[0] + 2
        assert deltas["Merchant"]["Ver"] == happy_merchant[3] - 1
        # ... while the witness does at most two exponentiations.
        assert deltas["Witness"]["Exp"] <= 2
        assert deltas["Witness"]["Sig"] <= 1  # only the commitment


class TestPaymentBench:
    def test_message_rounds_match_paper(self):
        assert measure_message_rounds() == PAPER_ROUNDS

    def test_small_trial_run(self):
        result = run_payment_trials(trials=3, params=make_test_params(), seed=5)
        assert result.latency_ms.n == 3
        assert 500 < result.latency_ms.mean < 4000  # seconds-scale, like the paper
        assert 800 < result.client_bytes.mean < 2500
        assert "Table 2" in result.render()

    def test_compute_vs_network(self):
        breakdown = compute_vs_network()
        assert breakdown.compute_ms <= 30.0  # the paper's OpenSSL claim
        assert breakdown.network_ms > breakdown.compute_ms  # compute << network

    def test_ad_comparison(self):
        comparison = ad_comparison(trials=2, seed=6)
        assert comparison.payment_is_cheaper
        assert comparison.ad_page_bytes > 10 * comparison.payment_client_bytes
