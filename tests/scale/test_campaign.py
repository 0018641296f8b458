"""Campaign-runner tests: determinism, engine identity, and safety.

The determinism contract under test: the report's ``results`` section
(and its sha256 digest) depends only on the :class:`CampaignConfig` —
not on the perf engine, not on which run it is.
"""

import json

import pytest

from repro import perf
from repro.scale import (
    CampaignConfig,
    identity_check,
    results_digest,
    run_campaign,
)

SMALL = CampaignConfig(seed=2026, nodes=64, duration=8.0)


@pytest.fixture(scope="module")
def small_report():
    with perf.forced(True):
        return run_campaign(SMALL)


class TestDeterminism:
    def test_same_config_same_digest_across_runs(self, small_report):
        with perf.forced(True):
            again = run_campaign(SMALL)
        assert again["digest"] == small_report["digest"]
        assert again["results"] == small_report["results"]

    def test_digest_covers_results_exactly(self, small_report):
        assert small_report["digest"] == results_digest(small_report["results"])

    def test_results_are_json_round_trippable(self, small_report):
        dumped = json.dumps(small_report["results"], sort_keys=True)
        assert json.loads(dumped) == small_report["results"]

    def test_different_seed_different_digest(self, small_report):
        with perf.forced(True):
            other = run_campaign(
                CampaignConfig(seed=2027, nodes=64, duration=8.0)
            )
        assert other["digest"] != small_report["digest"]


class TestEngineIdentity:
    def test_perf_vs_naive_digests_match(self):
        verdict = identity_check(CampaignConfig(seed=2026, nodes=48, duration=6.0))
        assert verdict["match"], verdict
        assert verdict["perf_table_builds"] == 1
        assert verdict["naive_table_builds"] > 1

    def test_engine_diagnostics_not_digested(self):
        """Engine-dependent fields live outside ``results``."""
        with perf.forced(True):
            report = run_campaign(SMALL, include_protocol=False)
        assert "table_builds" not in json.dumps(report["results"])
        assert report["engine"]["table_builds"] == 1
        assert report["engine"]["full_rebuilds_after_bootstrap"] == 0


class TestSafetyAndShape:
    def test_protocol_slice_has_zero_violations(self, small_report):
        protocol = small_report["results"]["protocol"]
        assert protocol["violations"] == 0
        assert protocol["invariants"]
        assert all(entry["ok"] for entry in protocol["invariants"])
        assert any("paid" in line for line in protocol["outcomes"])
        assert any(line.startswith("deposit ") for line in protocol["outcomes"])

    def test_lookup_hops_within_bound(self, small_report):
        lookups = small_report["results"]["lookups"]
        assert lookups["count"] > 0
        assert lookups["within_bound"]
        assert 0.0 < lookups["home_owner_up_ratio"] <= 1.0

    def test_membership_and_rebalance_accounted(self, small_report):
        membership = small_report["results"]["membership"]
        assert membership["joins"] + membership["leaves"] > 0
        assert membership["rebalance_bytes"] >= 0
        assert membership["final_nodes"] == (
            64 + membership["joins"] - membership["leaves"]
        )

    def test_metrics_wired_into_report(self, small_report):
        metrics = small_report["results"]["metrics"]
        assert metrics["campaign_events_total"]
        assert sum(metrics["campaign_events_total"].values()) == sum(
            small_report["results"]["workload"]["events"].values()
        )
        assert metrics["chord_lookups_total"] == metrics["chord_lookup_hops_count"]

    def test_availability_reflects_churn(self, small_report):
        availability = small_report["results"]["availability"]
        assert availability["live_fraction"]["count"] > 0
        assert availability["live_fraction"]["min"] <= 1.0

    def test_workload_digest_present(self, small_report):
        workload = small_report["results"]["workload"]
        assert len(workload["schedule_digest"]) == 64
        assert workload["events"]["pay"] > 0
