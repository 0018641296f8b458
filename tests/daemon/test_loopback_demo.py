"""End-to-end: one scenario on three OS processes and on the sim, byte parity."""

import pytest

from repro.daemon.demo import format_report, run_loopback_demo


def test_loopback_demo_matches_sim(tmp_path):
    report = run_loopback_demo(tmp_path, seed=2026)

    outcomes = report["daemon"]["outcomes"]
    assert outcomes["withdrawn"] == 25
    assert outcomes["paid"] == 25
    assert outcomes["deposited"] == {
        "count": 1,
        "outcome": "credited",
        "amount": 25,
    }
    assert outcomes["double_spend_refused"] is True

    # The sim run reached the same outcomes and the same books.
    assert report["problems"] == []
    assert report["sim"]["outcomes"] == outcomes

    # Non-trivial traffic was actually accounted on every node.
    for name, books in report["daemon"]["books"].items():
        sent, received, msg_out, msg_in = books["meter"]
        assert sent > 0 and received > 0, name
        assert msg_out > 0 and msg_in > 0, name

    text = format_report(report)
    assert "matches the sim transport exactly" in text


@pytest.mark.usefixtures("each_backend")
def test_loopback_demo_matches_sim_under_every_available_backend(tmp_path):
    """The daemons inherit ``REPRO_BACKEND``; the sim run is in process."""
    test_loopback_demo_matches_sim(tmp_path)
