"""Experiment harnesses that regenerate the paper's tables and figures.

* :mod:`repro.analysis.opcount` — Table 1 (crypto operations per
  protocol/party) and the Section 7 double-spend cost deltas.
* :mod:`repro.analysis.payment_bench` — Table 2 (payment latency and
  bandwidth over 100 trials), message-round counts, the OpenSSL
  compute-vs-network breakdown and the ad-page comparison.
* :mod:`repro.analysis.stats` / :mod:`repro.analysis.tables` — shared
  aggregation and paper-style rendering.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.opcount import (
        PAPER_TABLE1,
        OpRow,
        measure_double_spend_deltas,
        measure_table1,
        render_table1,
    )
    from repro.analysis.payment_bench import (
        PAPER_ROUNDS,
        PAPER_TABLE2,
        Table2Result,
        ad_comparison,
        compute_vs_network,
        measure_message_rounds,
        run_payment_trials,
    )
    from repro.analysis.stats import Summary, mean, stdev
    from repro.analysis.tables import render_table

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.opcount": (
            "PAPER_TABLE1", "OpRow", "measure_double_spend_deltas", "measure_table1",
            "render_table1",
        ),
        "repro.analysis.payment_bench": (
            "PAPER_ROUNDS", "PAPER_TABLE2", "Table2Result", "ad_comparison",
            "compute_vs_network", "measure_message_rounds", "run_payment_trials",
        ),
        "repro.analysis.stats": ("Summary", "mean", "stdev"),
        "repro.analysis.tables": ("render_table",),
    },
)

__all__ = [
    "PAPER_TABLE1",
    "OpRow",
    "measure_double_spend_deltas",
    "measure_table1",
    "render_table1",
    "PAPER_ROUNDS",
    "PAPER_TABLE2",
    "Table2Result",
    "ad_comparison",
    "compute_vs_network",
    "measure_message_rounds",
    "run_payment_trials",
    "Summary",
    "mean",
    "stdev",
    "render_table",
]
