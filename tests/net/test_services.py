"""Integration tests: the four protocols over the simulated network."""

import pytest

from repro import obs
from repro.core.exceptions import DoubleSpendError, RenewalRefusedError, ServiceUnavailableError
from repro.core.system import EcashSystem
from repro.net.costmodel import instant_profile
from repro.net.node import metered
from repro.net.services import NetworkDeployment
from repro.net.sim import SimTimeoutError
from repro.obs.tracer import _CURRENT


@pytest.fixture()
def deployment(params):
    system = EcashSystem(params=params, seed=17)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=17)
    dep.add_client("client-0")
    return system, dep


def withdraw(system, dep, denomination=25):
    info = system.standard_info(denomination, now=dep.now())
    return dep.run(dep.withdrawal_process("client-0", info))


def test_networked_withdrawal(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    assert stored.coin.denomination == 25
    assert stored in dep.clients["client-0"].wallet.coins


def test_networked_payment_and_deposit(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    receipt = dep.run(dep.payment_process("client-0", stored, merchant_id))
    assert receipt.amount == 25
    assert receipt.elapsed > 0
    assert receipt.client_bytes_sent > 0
    results = dep.run(dep.deposit_process(merchant_id))
    assert results[0]["outcome"] == "credited"
    assert system.broker.merchant_balance(merchant_id) == 25
    assert system.ledger.conserved()


def test_networked_double_spend_detected(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    others = [m for m in system.merchant_ids if m != stored.coin.witness_id]
    dep.run(dep.payment_process("client-0", stored, others[0]))
    dep.clients["client-0"].wallet.add(stored)
    # Wait out the first commitment's lifetime so the witness reopens.
    dep.sim.schedule(200.0, lambda: None)
    dep.sim.run()
    with pytest.raises(DoubleSpendError) as refusal:
        dep.run(dep.payment_process("client-0", stored, others[1]))
    assert refusal.value.proof.verify(system.params, stored.coin)


def test_networked_renewal(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    new_info = system.standard_info(25, now=dep.now())
    fresh = dep.run(dep.renewal_process("client-0", stored, new_info))
    assert fresh.coin.info == new_info
    with pytest.raises(RenewalRefusedError):
        dep.clients["client-0"].wallet.add(stored)
        dep.run(dep.renewal_process("client-0", stored, system.standard_info(25, now=dep.now())))


def test_trace_shows_figure1_flow(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    dep.run(dep.payment_process("client-0", stored, merchant_id))
    dep.run(dep.deposit_process(merchant_id))
    assert dep.network.trace.methods() == [
        "withdraw/begin",
        "withdraw/complete",
        "witness/commit",
        "pay",
        "witness/sign",
        "deposit",
    ]


def test_witness_down_payment_times_out(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    dep.network.node(stored.coin.witness_id).set_up(False)
    with pytest.raises(SimTimeoutError):
        dep.run(dep.payment_process("client-0", stored, merchant_id))
    # The coin is still in the wallet: the client can renew it instead.
    assert stored in dep.clients["client-0"].wallet.coins
    fresh = dep.run(
        dep.renewal_process("client-0", stored, system.standard_info(25, now=dep.now()))
    )
    assert fresh.coin.witness_id in system.merchant_ids


def test_broker_down_blocks_withdrawal_not_payment(deployment):
    """The decentralization claim: with the broker offline, spending
    previously withdrawn coins still works."""
    system, dep = deployment
    stored = withdraw(system, dep)
    dep.network.node("broker").set_up(False)
    info = system.standard_info(25, now=dep.now())
    with pytest.raises(SimTimeoutError):
        dep.run(dep.withdrawal_process("client-0", info))
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    receipt = dep.run(dep.payment_process("client-0", stored, merchant_id))
    assert receipt.amount == 25


def test_offline_client_fails_fast(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    dep.network.node("client-0").set_up(False)
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    with pytest.raises(ServiceUnavailableError):
        dep.run(dep.payment_process("client-0", stored, merchant_id))


def test_client_bytes_accounting(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
    node = dep.network.node("client-0")
    before = node.meter.sent_bytes
    receipt = dep.run(dep.payment_process("client-0", stored, merchant_id))
    assert receipt.client_bytes_sent == node.meter.sent_bytes - before
    # Two client-sent messages: commitment request + payment.
    assert node.meter.messages_sent >= 4  # 2 withdrawal + 2 payment


def test_interleaved_payments_do_not_parent_each_others_spans(params):
    """A process's span is current only while one of its steps runs, so a
    payment that starts while another is suspended is not its child, and
    no span is left current once both are done."""
    system = EcashSystem(params=params, seed=17)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=17)
    payments = []
    for name in ("client-0", "client-1"):
        dep.add_client(name)
        stored = dep.run(
            dep.withdrawal_process(name, system.standard_info(25, now=dep.now()))
        )
        merchant_id = next(m for m in system.merchant_ids if m != stored.coin.witness_id)
        payments.append(dep.payment_process(name, stored, merchant_id))
    obs.reset()
    with obs.enabled():
        futures = [
            dep.sim.spawn(metered(payment, dep.network.cost_model, dep.network.rng))
            for payment in payments
        ]
        dep.sim.run()
    assert all(future.result().amount == 25 for future in futures)
    spans = {record.span_id: record for record in obs.tracer().finished}
    obs.reset()
    paid = [record for record in spans.values() if record.name == "net.payment"]
    assert len(paid) == 2

    def ancestors(record):
        while record.parent_id is not None:
            record = spans[record.parent_id]
            yield record.span_id

    for one, other in (paid, paid[::-1]):
        assert other.span_id not in set(ancestors(one))
    assert _CURRENT.get() is None
