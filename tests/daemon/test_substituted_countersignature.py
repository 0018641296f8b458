"""A witness that answers ``witness/sign`` with a transcript it signed for
someone else: the storefront verifies the countersignature over the
transcript *it* verified, so it refuses, queues nothing and delivers no
service — over the sim and over real sockets alike.

Before the check, the storefront stored whatever transcript came back
beside the signature: it replied ``service`` for 25 cents and queued a
1-cent transcript naming another merchant, which the broker refuses at
deposit. An honest storefront gave service and lost the coin.
"""

import asyncio

import pytest

from repro.core.exceptions import InvalidPaymentError
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.daemon.client import SocketTransport
from repro.daemon.demo import CLIENT, MERCHANT, WITNESS
from repro.daemon.keys import NodeIdentity, identity_keypair
from repro.daemon.service import MerchantDaemon, WitnessDaemon
from repro.net import registry
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment

NOW = 10
OTHER = "other-shop"


def _system(params) -> EcashSystem:
    return EcashSystem(
        merchant_ids=(WITNESS, MERCHANT, OTHER),
        params=params,
        seed=47,
        independent_rngs=True,
        weights={WITNESS: 1.0},
    )


def _substituting_witness(system: EcashSystem) -> None:
    """Make the witness answer every ``witness/sign`` with a transcript it
    signed earlier, honestly, for ``OTHER`` on a 1-cent coin."""
    witness = system.witness(WITNESS)
    payer = system.new_client()
    cent = run_withdrawal(payer, system.broker, system.standard_info(1, NOW))
    stale = run_payment(payer, cent, system.merchant(OTHER), witness, NOW)
    assert stale.transcript.merchant_id == OTHER
    assert stale.transcript.coin.denomination == 1
    witness.sign_transcript = lambda transcript, now: stale


def _untouched(merchant) -> tuple:
    return (
        merchant.pending_deposits(),
        set(merchant._seen_bare_coins),
    )


def _pay_over_the_sim(system: EcashSystem) -> None:
    deployment = NetworkDeployment(system, cost_model=instant_profile(), seed=47)
    deployment.add_client(CLIENT)
    info = system.standard_info(25, now=0)
    stored = deployment.run(deployment.withdrawal_process(CLIENT, info))
    deployment.run(deployment.payment_process(CLIENT, stored, MERCHANT))


def _pay_over_sockets(system: EcashSystem) -> None:
    client = system.new_client()
    stored = run_withdrawal(client, system.broker, system.standard_info(25, NOW))

    async def scenario() -> None:
        identities = {
            name: NodeIdentity(name=name, keypair=identity_keypair(name, 5))
            for name in (WITNESS, MERCHANT, CLIENT)
        }
        roster = {name: identity.public for name, identity in identities.items()}
        witness = WitnessDaemon(system, WITNESS, identities[WITNESS], roster, "127.0.0.1", 0)
        witness.clock.pin(NOW)
        await witness.node.start()
        netmap = {WITNESS: ("127.0.0.1", witness.node.port)}
        shop = MerchantDaemon(
            system, MERCHANT, identities[MERCHANT], roster, "127.0.0.1", 0, netmap=netmap
        )
        shop.clock.pin(NOW)
        await shop.node.start()
        payer = SocketTransport(
            identities[CLIENT], roster, {**netmap, MERCHANT: ("127.0.0.1", shop.node.port)}
        )
        try:
            witness_public = system.merchant(MERCHANT).witness_keys[WITNESS]
            flow = registry.payment_flow(client, stored, MERCHANT, witness_public, lambda: NOW)
            await payer.run_flow(CLIENT, flow)
        finally:
            await payer.close()
            await shop.node.stop()
            await witness.node.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("stack", ["sim", "sockets"])
def test_a_substituted_countersignature_is_refused(params, stack):
    system = _system(params)
    _substituting_witness(system)
    storefront = system.merchant(MERCHANT)
    before = _untouched(storefront)
    pay = _pay_over_the_sim if stack == "sim" else _pay_over_sockets
    with pytest.raises(InvalidPaymentError, match="witness signature on transcript"):
        pay(system)
    assert _untouched(storefront) == before
    assert storefront.pending_deposits() == []
