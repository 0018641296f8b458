"""Tests for coin renewal (Algorithm 4)."""

import dataclasses

import pytest

from repro.core.client import StoredCoin
from repro.core.coin import Coin
from repro.core.exceptions import (
    ExpiredCoinError,
    InvalidCoinError,
    InvalidPaymentError,
    RenewalRefusedError,
)
from repro.core.protocols import run_deposit, run_payment, run_renewal, run_withdrawal
from repro.daemon import wire
from repro.net import registry
from tests.conftest import other_merchant


def test_renew_after_soft_expiry(system, funded_client):
    client, stored = funded_client
    after_soft = stored.coin.info.soft_expiry + 10
    new_info = system.standard_info(25, now=after_soft)
    fresh = run_renewal(client, stored, system.broker, new_info, now=after_soft)
    assert fresh.coin.info == new_info
    assert stored not in client.wallet.coins
    assert fresh in client.wallet.coins


def test_renewed_coin_is_spendable(system, funded_client):
    client, stored = funded_client
    now = stored.coin.info.soft_expiry + 10
    fresh = run_renewal(client, stored, system.broker, system.standard_info(25, now=now), now=now)
    merchant = system.merchant(other_merchant(system, fresh.coin.witness_id))
    signed = run_payment(client, fresh, merchant, system.witness_of(fresh), now=now + 5)
    results = run_deposit(merchant, system.broker, now=now + 10)
    assert results[0].amount == 25
    assert system.ledger.conserved()


def test_renewal_of_deposited_coin_refused_with_secrets(system, funded_client):
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    client.wallet.add(stored)
    with pytest.raises(RenewalRefusedError) as refusal:
        run_renewal(client, stored, system.broker, system.standard_info(25, now=30), now=30)
    proof = refusal.value.proof
    assert proof.verify(system.params, stored.coin)
    assert proof.x == stored.secrets.x
    assert proof.y == stored.secrets.y


def test_double_renewal_refused_with_secrets(system, funded_client):
    client, stored = funded_client
    run_renewal(client, stored, system.broker, system.standard_info(25, now=100), now=100)
    client.wallet.add(stored)
    with pytest.raises(RenewalRefusedError) as refusal:
        run_renewal(client, stored, system.broker, system.standard_info(25, now=200), now=200)
    assert refusal.value.proof.verify(system.params, stored.coin)


def _reencoded(system, stored, scalar, shift):
    """The same coin with one signature scalar moved up by a multiple of
    ``q`` (a negative one neither hashes nor encodes): the verification
    equation cannot tell, ``BareCoin`` equality can."""
    signature = stored.coin.bare.signature
    moved = dataclasses.replace(
        signature, **{scalar: getattr(signature, scalar) + shift * system.params.group.q}
    )
    bare = dataclasses.replace(stored.coin.bare, signature=moved)
    assert bare != stored.coin.bare
    return StoredCoin(
        coin=Coin(bare=bare, witness_entry=stored.coin.witness_entry), secrets=stored.secrets
    )


@pytest.mark.parametrize("scalar", ["rho", "omega", "sigma", "delta"])
@pytest.mark.parametrize("shift", [1, 2], ids=["plus-q", "plus-2q"])
def test_a_reencoded_coin_is_not_a_second_coin(system, funded_client, scalar, shift):
    """One withdrawal, one renewal — however the old coin is spelled after."""
    client, stored = funded_client
    broker = system.broker
    run_renewal(client, stored, broker, system.standard_info(25, now=100), now=100)
    again = _reencoded(system, stored, scalar, shift)

    new_info = system.standard_info(25, now=200)
    ticket, challenge = broker.begin_renewal(new_info)
    session = client.begin_withdrawal(new_info, challenge)
    timestamp, salt, r1, r2 = client.renewal_proof(again, now=200)
    with pytest.raises(InvalidCoinError):
        broker.complete_renewal(
            ticket, session.e, again.coin.bare, timestamp, salt, r1, r2, now=200
        )
    assert ticket in broker._tickets  # restored: the client may retry honestly
    assert list(broker._renewals) == [stored.coin.bare]  # nothing minted
    assert len(client.wallet.coins) == 1
    assert system.ledger.conserved()


def test_a_spent_coin_does_not_renew_under_a_second_encoding(system, funded_client):
    client, stored = funded_client
    merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
    run_payment(client, stored, merchant, system.witness_of(stored), now=10)
    run_deposit(merchant, system.broker, now=20)
    again = _reencoded(system, stored, "rho", 1)
    client.wallet.add(again)
    with pytest.raises(InvalidCoinError):
        run_renewal(client, again, system.broker, system.standard_info(25, now=30), now=30)
    assert not system.broker._renewals


def test_a_reencoded_coin_is_refused_through_the_wire_handler(system, funded_client):
    """``rho + q`` survives the codec; the handler must not mint for it."""
    client, stored = funded_client
    run_renewal(client, stored, system.broker, system.standard_info(25, now=100), now=100)
    again = _reencoded(system, stored, "rho", 1)
    handlers = registry.broker_dispatch(system.broker, lambda: 200)

    def over_the_wire(method, payload):
        _, received = wire.parse_request(wire.request_body(method, payload))
        return handlers[method](received)

    new_info = system.standard_info(25, now=200)
    opened = over_the_wire("renew/begin", {"info": new_info.to_wire()})["ticket"]
    timestamp, salt, r1, r2 = client.renewal_proof(again, now=200)
    with pytest.raises(InvalidCoinError):
        over_the_wire(
            "renew/complete",
            {
                "ticket": opened["id"],
                "sig_e": 1,
                "old": again.coin.bare.to_wire(),
                "proof_ts": timestamp,
                "proof_salt": salt,
                "r1": r1,
                "r2": r2,
            },
        )
    assert list(system.broker._renewals) == [stored.coin.bare]


def test_void_coin_unrenewable(system, funded_client):
    client, stored = funded_client
    after_hard = stored.coin.info.hard_expiry + 1
    with pytest.raises(ExpiredCoinError):
        run_renewal(
            client, stored, system.broker,
            system.standard_info(25, now=after_hard), now=after_hard,
        )


def test_denomination_must_match(system, funded_client):
    client, stored = funded_client
    with pytest.raises(ValueError):
        run_renewal(client, stored, system.broker, system.standard_info(50, now=100), now=100)


def test_renewal_requires_ownership_proof(system, funded_client):
    """A thief with the coin but not the secrets cannot renew it."""
    client, stored = funded_client
    thief = system.new_client()
    from repro.crypto.representation import RepresentationPair

    stolen = StoredCoin(
        coin=stored.coin, secrets=RepresentationPair.generate(system.params.group, None)
    )
    thief.wallet.add(stolen)
    with pytest.raises(InvalidPaymentError):
        run_renewal(thief, stolen, system.broker, system.standard_info(25, now=100), now=100)


def test_stale_proof_timestamp_rejected(system, funded_client):
    client, stored = funded_client
    new_info = system.standard_info(25, now=1000)
    ticket, challenge = system.broker.begin_renewal(new_info)
    session = client.begin_withdrawal(new_info, challenge)
    timestamp, salt, r1, r2 = client.renewal_proof(stored, now=100)  # old proof
    with pytest.raises(InvalidPaymentError):
        system.broker.complete_renewal(
            ticket, session.e, stored.coin.bare, timestamp, salt, r1, r2, now=1000
        )


def test_renewal_is_free(system, funded_client):
    client, stored = funded_client
    minted_before = system.ledger.minted
    run_renewal(client, stored, system.broker, system.standard_info(25, now=100), now=100)
    assert system.ledger.minted == minted_before  # no new money entered


def test_renewal_purge(system, funded_client):
    client, stored = funded_client
    run_renewal(client, stored, system.broker, system.standard_info(25, now=100), now=100)
    removed = system.broker.purge_expired_records(now=stored.coin.info.hard_expiry + 1)
    assert removed >= 1
