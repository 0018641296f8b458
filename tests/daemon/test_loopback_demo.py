"""End-to-end: one scenario on three OS processes and on the sim, byte parity."""

import types

import pytest

from repro.daemon import demo
from repro.daemon.client import ADMIN_PREFIX, PeerConnection
from repro.daemon.demo import DAEMONS, format_report, run_loopback_demo, write_deployment
from repro.daemon.service import build_daemon


def test_every_daemon_gets_its_own_port_when_a_closed_probe_frees_it(
    tmp_path, monkeypatch
):
    """A port is free again once its probe closes, and a kernel may hand it
    to the very next probe; the deployment must still name three ports."""
    held: set[int] = set()

    class Probe:
        """A socket whose bind takes the lowest port no open probe holds."""

        def __init__(self) -> None:
            self.port = 0

        def __enter__(self) -> "Probe":
            return self

        def __exit__(self, *exc_info: object) -> None:
            self.close()

        def bind(self, address: tuple[str, int]) -> None:
            self.port = min(set(range(40000, 40004)) - held)
            held.add(self.port)

        def getsockname(self) -> tuple[str, int]:
            return ("127.0.0.1", self.port)

        def close(self) -> None:
            held.discard(self.port)

    monkeypatch.setattr(demo, "socket", types.SimpleNamespace(socket=Probe))
    config = write_deployment(tmp_path, seed=7)
    ports = [address.port for address in config.nodes.values()]
    assert sorted(ports) == [40000, 40001, 40002]


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


def test_every_admin_method_served_is_sent_and_every_one_sent_is_served(
    tmp_path, monkeypatch
):
    """The control plane has no dead handler and no unserved call: the
    ``admin/*`` methods the demo sends are exactly those its daemons'
    dispatch tables serve."""
    sent: set[str] = set()
    begin = PeerConnection.begin

    def recording_begin(self, method, payload, timeout=None, overlapped=False):
        if method.startswith(ADMIN_PREFIX):
            sent.add(method)
        return begin(self, method, payload, timeout, overlapped)

    monkeypatch.setattr(PeerConnection, "begin", recording_begin)
    assert run_loopback_demo(tmp_path, seed=2026)["problems"] == []

    served = {
        method
        for name in DAEMONS
        for method in build_daemon(str(tmp_path), name).node.handlers
        if method.startswith(ADMIN_PREFIX)
    }
    assert sent == served, (
        f"served but never sent: {sorted(served - sent)}; "
        f"sent but not served: {sorted(sent - served)}"
    )
