"""Campaign-runner tests: determinism, repair identity, and safety.

The determinism contract under test: the report's ``results`` section
(and its sha256 digest) depends only on the :class:`CampaignConfig` —
not on which run it is, and not on routing tables being repaired in
place rather than rebuilt.
"""

import json

import pytest

from repro.net.chord import ChordRing
from repro.obs.histogram import StreamingHistogram
from repro.scale import CampaignConfig, campaign, results_digest, run_campaign

SMALL = CampaignConfig(seed=2026, nodes=64, duration=8.0)

#: ``results`` digest of the 48-node, 6 s overlay campaign, recorded from
#: the full-rebuild-per-churn-event, memo-free path at the last commit
#: that had one (PR 17).
REBUILD_PATH_DIGEST = "56de51ce443d5688a3256032e35ecb8f41eefbea740b4911eeed02a864ef5b2f"


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(SMALL)


class TestDeterminism:
    def test_same_config_same_digest_across_runs(self, small_report):
        again = run_campaign(SMALL)
        assert again["digest"] == small_report["digest"]
        assert again["results"] == small_report["results"]

    def test_digest_covers_results_exactly(self, small_report):
        assert small_report["digest"] == results_digest(small_report["results"])

    def test_results_are_json_round_trippable(self, small_report):
        dumped = json.dumps(small_report["results"], sort_keys=True)
        assert json.loads(dumped) == small_report["results"]

    def test_different_seed_different_digest(self, small_report):
        other = run_campaign(CampaignConfig(seed=2027, nodes=64, duration=8.0))
        assert other["digest"] != small_report["digest"]


class TestEngineIdentity:
    def test_perf_vs_naive_digests_match(self, monkeypatch):
        """Joins, leaves and liveness flips repaired in place leave every
        node's fingers and successors where a ring built from scratch
        over the final membership puts them, and the lookups made along
        the way are the ones the naive path made — rebuild at every churn
        event, no memo — whose digest is pinned above."""
        rings = []

        def capture(*args, **kwargs):
            rings.append(ChordRing(*args, **kwargs))
            return rings[-1]

        monkeypatch.setattr(campaign, "ChordRing", capture)
        report = run_campaign(
            CampaignConfig(seed=2026, nodes=48, duration=6.0), include_protocol=False
        )
        (ring,) = rings
        membership = report["results"]["membership"]
        assert membership["joins"] and membership["leaves"]
        fresh = ChordRing([node.name for node in ring.nodes], successor_list_size=ring.r)
        for node, twin in zip(ring.nodes, fresh.nodes, strict=True):
            assert node.name == twin.name
            assert [f.name for f in node.finger] == [f.name for f in twin.finger]
            assert [s.name for s in node.successors] == [s.name for s in twin.successors]
        assert report["digest"] == REBUILD_PATH_DIGEST

    def test_engine_diagnostics_not_digested(self):
        """Implementation diagnostics live outside ``results``."""
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

    def test_short_repair_stream_reports_exact_tail(self, small_report):
        """Five repair costs are under the exact limit: nearest rank, so
        the tail quantiles reach the largest cost."""
        repair = small_report["engine"]["repair_ops_per_event"]
        assert repair["p90"] == repair["p99"] == repair["max"] == 157.0

    def test_empty_summary_is_all_zero(self):
        assert campaign._rounded(StreamingHistogram()) == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_workload_digest_present(self, small_report):
        workload = small_report["results"]["workload"]
        assert len(workload["schedule_digest"]) == 64
        assert workload["events"]["pay"] > 0
