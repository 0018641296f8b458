"""Tests for the fault injector over the RPC fabric."""

import random

import pytest

from repro import obs
from repro.faults.injector import FaultInjector, corrupt_message
from repro.faults.plan import FaultPlan
from repro.net.costmodel import instant_profile
from repro.net.latency import LatencyModel, Region
from repro.net.node import Network, Node
from repro.net.sim import SimTimeoutError, Simulator
from repro.net.transport import Message


def flat_latency(one_way=0.01):
    means = {frozenset({a, b}): one_way for a in Region for b in Region}
    means.update({frozenset({a}): one_way for a in Region})
    return LatencyModel(
        one_way_means=means,
        jitter=0.0,
        bandwidth_bytes_per_s=float("inf"),
        rng=random.Random(0),
    )


@pytest.fixture()
def network():
    sim = Simulator()
    net = Network(sim, flat_latency(), instant_profile(), seed=0)
    net.register(Node("alpha", Region.WISCONSIN))
    beta = net.register(Node("beta", Region.CALIFORNIA))
    calls = []
    beta.on("echo", lambda payload: calls.append(dict(payload)) or {"ok": 1})
    return sim, net, calls


def send(sim, net, payload=None, timeout=15.0):
    def process():
        reply = yield net.rpc("alpha", "beta", "echo", payload or {"k": 1}, timeout=timeout)
        return reply

    return sim.run_process(process())


def test_drop_rule_causes_timeout(network):
    sim, net, calls = network
    injector = FaultInjector(FaultPlan(seed=1).drop(method="echo")).install(net)
    with pytest.raises(SimTimeoutError):
        send(sim, net)
    assert calls == []
    assert [event.kind for event in injector.events] == ["drop"]


def test_delay_rule_postpones_delivery(network):
    sim, net, calls = network
    FaultInjector(FaultPlan(seed=1).delay(method="echo", delay=5.0)).install(net)
    assert send(sim, net) == {"ok": 1}
    assert sim.now == pytest.approx(5.02, rel=0.01)  # 2 hops + 5s injected
    assert len(calls) == 1


def test_duplicate_rule_runs_handler_twice(network):
    sim, net, calls = network
    FaultInjector(FaultPlan(seed=1).duplicate(method="echo")).install(net)
    assert send(sim, net) == {"ok": 1}
    assert len(calls) == 2  # replay reached the handler too


def test_corrupt_rule_changes_payload_in_flight(network):
    sim, net, calls = network
    FaultInjector(FaultPlan(seed=1).corrupt(method="echo")).install(net)
    send(sim, net, payload={"k": 1})
    assert calls == [{"k": 2}]  # the single int leaf was bumped


def test_reorder_rule_lets_next_message_overtake(network):
    sim, net, calls = network
    FaultInjector(FaultPlan(seed=1).reorder(method="echo", max_injections=1)).install(net)

    def sender(value):
        yield net.rpc("alpha", "beta", "echo", {"k": value})

    sim.spawn(sender(1))
    sim.spawn(sender(2))
    sim.run()
    assert calls == [{"k": 2}, {"k": 1}]  # the held first message arrived second


def test_probability_and_budget_are_respected(network):
    sim, net, calls = network
    injector = FaultInjector(
        FaultPlan(seed=3).drop(method="echo", probability=0.5, max_injections=2)
    ).install(net)
    outcomes = []
    for _ in range(12):
        try:
            send(sim, net)
            outcomes.append("ok")
        except SimTimeoutError:
            outcomes.append("dropped")
    assert outcomes.count("dropped") == 2  # budget cap, despite p=0.5 over 12 sends
    assert len(injector.events) == 2


def test_crash_window_takes_node_down_and_back(network):
    sim, net, calls = network
    injector = FaultInjector(
        FaultPlan(seed=1).crash("beta", at=1.0, duration=2.0)
    ).install(net)
    assert send(sim, net) == {"ok": 1}  # before the crash
    sim.run(until=1.5)
    with pytest.raises(SimTimeoutError):
        send(sim, net)  # mid-outage: the request is lost
    assert send(sim, net) == {"ok": 1}  # after the restart
    assert [event.kind for event in injector.events] == ["crash", "restart"]


def test_single_injector_per_network(network):
    sim, net, calls = network
    FaultInjector(FaultPlan(seed=1)).install(net)
    with pytest.raises(RuntimeError):
        FaultInjector(FaultPlan(seed=2)).install(net)


def test_uninstall_detaches_filter(network):
    sim, net, calls = network
    injector = FaultInjector(FaultPlan(seed=1).drop(method="echo")).install(net)
    injector.uninstall()
    assert net.fault_filter is None
    assert send(sim, net) == {"ok": 1}


def test_injections_counted_in_obs(network):
    sim, net, calls = network
    obs.reset()
    with obs.enabled():
        FaultInjector(FaultPlan(seed=1).drop(method="echo")).install(net)
        with pytest.raises(SimTimeoutError):
            send(sim, net)
    assert obs.registry().counter_value("fault_injected_total", kind="drop") == 1.0
    obs.reset()


def test_corrupt_message_is_seed_deterministic():
    message = Message(method="m", payload={"a": 5, "b": {"c": 7}, "s": "text"})
    first = corrupt_message(message, random.Random("x"))
    second = corrupt_message(message, random.Random("x"))
    assert first.payload == second.payload
    assert first.payload != message.payload
    # Exactly one int leaf was bumped by one.
    flat_before = {"a": 5, "c": 7}
    flat_after = {"a": first.payload["a"], "c": first.payload["b"]["c"]}
    changed = [k for k in flat_before if flat_before[k] != flat_after[k]]
    assert len(changed) == 1
    assert flat_after[changed[0]] == flat_before[changed[0]] + 1


def test_corrupt_message_falls_back_to_strings():
    message = Message(method="m", payload={"only": "strings"})
    corrupted = corrupt_message(message, random.Random(1))
    assert corrupted.payload["only"] != "strings"
