"""End-to-end telemetry: facade behaviour, instrumented protocols, CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.exceptions import DoubleSpendError
from repro.core.protocols import run_deposit, run_payment, run_withdrawal


def lifecycle(system):
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    run_payment(client, stored, system.merchant(merchant_id), system.witness_of(stored), now=10)
    run_deposit(system.merchant(merchant_id), system.broker, now=100)
    return stored


def test_disabled_by_default_records_nothing(system):
    assert not obs.is_enabled()
    lifecycle(system)
    assert obs.registry().snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert obs.tracer().finished == []


def test_null_span_is_shared_and_inert():
    first = obs.span("anything")
    second = obs.span("else")
    assert first is second
    with first as active:
        assert active.set("key", "value") is active


def test_enabled_context_restores_prior_state():
    assert not obs.is_enabled()
    with obs.enabled():
        assert obs.is_enabled()
        obs.counter_inc("inside")
    assert not obs.is_enabled()
    assert obs.registry().counter_value("inside") == 1.0


def test_lifecycle_records_protocol_spans_and_counters(system):
    with obs.enabled():
        lifecycle(system)
    registry = obs.registry()
    for protocol in ("withdrawal", "payment", "deposit"):
        assert registry.counter_value("protocol_runs_total", protocol=protocol) == 1.0
    spans = obs.tracer().summary()["by_name"]
    assert {"protocol.withdrawal", "protocol.payment", "protocol.deposit"} <= set(spans)
    # The witness-sign leg nests inside the payment span.
    payment = next(r for r in obs.tracer().finished if r.name == "protocol.payment")
    child_names = {r.name for r in obs.tracer().children_of(payment.span_id)}
    assert "protocol.payment.witness_sign" in child_names
    # Crypto op counters track raw operations.
    assert registry.counter_value("crypto_ops_total", op="exp") > 0


def test_double_spend_increments_detection_counter(system):
    with obs.enabled():
        attacker = system.new_client()
        stored = run_withdrawal(attacker, system.broker, system.standard_info(25, now=0))
        shops = [m for m in system.merchant_ids if m != stored.coin.witness_id]
        witness = system.witness_of(stored)
        run_payment(attacker, stored, system.merchant(shops[0]), witness, now=10)
        attacker.wallet.add(stored)
        with pytest.raises(DoubleSpendError):
            run_payment(attacker, stored, system.merchant(shops[1]), witness, now=500)
    assert obs.registry().counter_value("double_spend_detected") == 1.0


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_demo_metrics_flag(capsys):
    code, out = run_cli(capsys, "demo", "--metrics")
    assert code == 0
    assert "== Observability snapshot ==" in out
    assert "protocol.payment" in out
    assert "crypto_ops_total{op=exp}" in out
    assert "overlay_messages_total{kind=version}" in out
    assert "chord_lookup_hops" in out


def test_cli_attack_metrics_flag(capsys):
    code, out = run_cli(capsys, "attack", "--metrics")
    assert code == 0
    assert "refused in real time" in out
    assert "double_spend_detected" in out


def test_cli_metrics_subcommand_json(capsys):
    code, out = run_cli(capsys, "metrics", "--format", "json")
    assert code == 0
    document = json.loads(out)
    counters = document["metrics"]["counters"]
    assert counters["double_spend_detected"] == 1.0
    assert counters["chord_lookups_total"] > 0
    assert "protocol.payment" in document["spans"]["by_name"]


def test_cli_metrics_subcommand_prometheus(capsys):
    code, out = run_cli(capsys, "metrics", "--format", "prom")
    assert code == 0
    assert "# TYPE double_spend_detected counter" in out
    assert "double_spend_detected 1" in out
