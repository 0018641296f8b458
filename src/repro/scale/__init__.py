"""The scale engine: seeded campaign workloads for 10k-node overlays.

Two layers, all deterministic under one seed (campaign statistics stream
through :class:`repro.obs.histogram.StreamingHistogram`, so million-event
campaigns never hold per-sample lists):

* :mod:`repro.scale.workload` — seeded arrival processes (Poisson
  payments, Zipf merchant popularity, renewal storms at expiry
  boundaries) with a byte-identity schedule digest;
* :mod:`repro.scale.campaign` — the runner: a large Chord overlay under
  availability and membership churn, per-event witness lookups, range
  rebalancing in bytes, a real-crypto protocol slice with the safety
  invariant checker, and a digested report.

Entry point: ``python -m repro campaign`` (see ``repro.cli``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scale.campaign import (
        CampaignConfig,
        results_digest,
        run_campaign,
    )
    from repro.scale.workload import (
        Event,
        WorkloadConfig,
        ZipfSampler,
        event_counts,
        generate_events,
        schedule_digest,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.scale.campaign": ("CampaignConfig", "results_digest", "run_campaign"),
        "repro.scale.workload": (
            "Event", "WorkloadConfig", "ZipfSampler", "event_counts", "generate_events",
            "schedule_digest",
        ),
    },
)

__all__ = [
    "CampaignConfig",
    "Event",
    "WorkloadConfig",
    "ZipfSampler",
    "event_counts",
    "generate_events",
    "results_digest",
    "run_campaign",
    "schedule_digest",
]
