"""Network substrate: discrete-event simulation of the deployed system.

The paper's Table 2 experiment ran the four parties on PlanetLab nodes in
Wisconsin (client and broker), California (witness) and Massachusetts
(merchant). This package replaces the testbed with a discrete-event
simulator (:mod:`repro.net.sim`) carrying real protocol messages in the
paper's URI wire format (:mod:`repro.net.transport`), a WAN latency model
calibrated to the paper's "50-100 ms" PlanetLab round-trips
(:mod:`repro.net.latency`), and a per-operation compute-cost model
calibrated to the paper's own reported crypto timings
(:mod:`repro.net.costmodel`). :mod:`repro.net.services` runs the actual
protocol code over this substrate; :mod:`repro.net.churn` adds node
availability; :mod:`repro.net.chord` provides the DHT used by the
WhoPay/Hoepman baseline.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.sim import Future, Simulator, Sleep, SimTimeoutError
    from repro.net.latency import LatencyModel, Region, planetlab_us
    from repro.net.costmodel import ComputeCostModel, openssl_profile, python2006_profile
    from repro.net.node import Network, Node
    from repro.net.overlay import Directory, GossipOverlay, publish_directory

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.net.sim": ("Future", "Simulator", "Sleep", "SimTimeoutError"),
        "repro.net.latency": ("LatencyModel", "Region", "planetlab_us"),
        "repro.net.costmodel": (
            "ComputeCostModel", "openssl_profile", "python2006_profile",
        ),
        "repro.net.node": ("Network", "Node"),
        "repro.net.overlay": ("Directory", "GossipOverlay", "publish_directory"),
    },
)

__all__ = [
    "Future",
    "Simulator",
    "Sleep",
    "SimTimeoutError",
    "LatencyModel",
    "Region",
    "planetlab_us",
    "ComputeCostModel",
    "openssl_profile",
    "python2006_profile",
    "Network",
    "Node",
    "Directory",
    "GossipOverlay",
    "publish_directory",
]
