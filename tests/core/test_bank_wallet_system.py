"""Tests for the ledger, the wallet file, and the EcashSystem wiring."""

import pytest

from repro.core.bank import Ledger
from repro.core.client import Wallet
from repro.core.exceptions import InsufficientFundsError
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem


class TestLedger:
    def test_mint_transfer_burn(self):
        ledger = Ledger()
        ledger.mint("alice", 100)
        ledger.transfer("alice", "bob", 40)
        ledger.burn("bob", 10)
        assert ledger.balance("alice") == 60
        assert ledger.balance("bob") == 30
        assert ledger.minted == 100
        assert ledger.burned == 10
        assert ledger.conserved()

    def test_insufficient_funds(self):
        ledger = Ledger()
        ledger.mint("alice", 10)
        with pytest.raises(InsufficientFundsError):
            ledger.transfer("alice", "bob", 11)
        with pytest.raises(InsufficientFundsError):
            ledger.burn("alice", 11)

    def test_non_positive_amounts_rejected(self):
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.mint("alice", 0)
        with pytest.raises(ValueError):
            ledger.transfer("a", "b", -5)

    def test_unknown_account_balance_zero(self):
        assert Ledger().balance("ghost") == 0

    def test_history_recorded(self):
        ledger = Ledger()
        ledger.mint("a", 5, memo="gift card")
        ledger.transfer("a", "b", 5, memo="coin")
        assert len(ledger.history) == 2
        assert ledger.history[0][2] == "gift card"


class TestWallet:
    def test_save_load_roundtrip(self, system, tmp_path):
        client = system.new_client()
        for denomination in (25, 50):
            run_withdrawal(client, system.broker, system.standard_info(denomination, now=0))
        path = tmp_path / "wallet.json"
        client.wallet.save(path)
        restored = Wallet.load(path)
        assert restored.coins == client.wallet.coins
        assert restored.total_value() == 75

    def test_restored_coins_spendable(self, system, tmp_path):
        from repro.core.protocols import run_payment
        from tests.conftest import other_merchant

        client = system.new_client()
        run_withdrawal(client, system.broker, system.standard_info(25, now=0))
        path = tmp_path / "wallet.json"
        client.wallet.save(path)
        fresh_client = system.new_client()
        fresh_client.wallet = Wallet.load(path)
        stored = fresh_client.wallet.coins[0]
        merchant = system.merchant(other_merchant(system, stored.coin.witness_id))
        signed = run_payment(fresh_client, stored, merchant, system.witness_of(stored), now=10)
        assert signed.transcript.coin == stored.coin

    def test_version_check(self, tmp_path):
        path = tmp_path / "wallet.json"
        path.write_text('{"version": 99, "coins": []}')
        with pytest.raises(ValueError):
            Wallet.load(path)

    def test_coins_keep_acquisition_order_across_removals(self, system):
        client = system.new_client()
        held = [
            run_withdrawal(client, system.broker, system.standard_info(25, now=0))
            for _ in range(4)
        ]
        assert client.wallet.coins == held
        client.mark_spent(held[1])
        client.mark_spent(held[1])  # already gone: not an error
        assert client.wallet.coins == [held[0], held[2], held[3]]
        assert held[1] not in client.wallet and held[2] in client.wallet
        with pytest.raises(ValueError):
            client.wallet.remove(held[1])
        client.wallet.add(held[1])
        assert client.wallet.coins == [held[0], held[2], held[3], held[1]]
        # The list is a copy: the wallet changes through add/remove only.
        client.wallet.coins.clear()
        assert client.wallet.total_value() == 100

    def test_spendable_renewable_filters(self, system):
        client = system.new_client()
        stored = run_withdrawal(client, system.broker, system.standard_info(25, now=0))
        soft = stored.coin.info.soft_expiry
        assert client.wallet.spendable(now=0) == [stored]
        assert client.wallet.renewable(now=0) == []
        assert client.wallet.spendable(now=soft) == []
        assert client.wallet.renewable(now=soft) == [stored]
        hard = stored.coin.info.hard_expiry
        assert client.wallet.renewable(now=hard) == []


class TestEcashSystem:
    def test_wiring(self, system):
        assert len(system.merchant_ids) == 4
        table = system.broker.current_table
        assert set(table.merchant_ids) == set(system.merchant_ids)
        for merchant_id in system.merchant_ids:
            node = system.nodes[merchant_id]
            assert node.merchant.keypair.public == node.witness.keypair.public
            assert set(node.merchant.witness_keys) == set(system.merchant_ids)

    def test_security_deposits_escrowed(self, system):
        for merchant_id in system.merchant_ids:
            assert system.broker.security_deposit_balance(merchant_id) == 100_00
        assert system.ledger.conserved()

    def test_requires_merchants(self, params):
        with pytest.raises(ValueError):
            EcashSystem(merchant_ids=(), params=params)

    def test_witness_of(self, system, funded_client):
        client, stored = funded_client
        witness = system.witness_of(stored)
        assert witness.merchant_id == stored.coin.witness_id

    def test_deterministic_with_seed(self, params):
        one = EcashSystem(merchant_ids=("a", "b"), params=params, seed=5)
        two = EcashSystem(merchant_ids=("a", "b"), params=params, seed=5)
        assert one.broker.blind_public == two.broker.blind_public
        assert one.nodes["a"].merchant.public_key == two.nodes["a"].merchant.public_key

    def test_independent_rngs_deterministic_across_instances(self, params):
        # Two instances — think two daemon processes rebuilding the
        # deployment — derive identical per-party randomness.
        one = EcashSystem(
            merchant_ids=("a", "b"), params=params, seed=5, independent_rngs=True
        )
        two = EcashSystem(
            merchant_ids=("a", "b"), params=params, seed=5, independent_rngs=True
        )
        assert one.broker.blind_public == two.broker.blind_public
        assert one.nodes["b"].merchant.public_key == two.nodes["b"].merchant.public_key
        info = one.standard_info(25, now=0)
        ticket_one, challenge_one = one.broker.begin_withdrawal(info)
        ticket_two, challenge_two = two.broker.begin_withdrawal(info)
        assert (ticket_one, challenge_one) == (ticket_two, challenge_two)
        # Clients are seeded by creation order, independent of the broker.
        assert one.new_client().rng.random() == two.new_client().rng.random()

    def test_independent_rngs_requires_seed(self, params):
        with pytest.raises(ValueError, match="seed"):
            EcashSystem(merchant_ids=("a",), params=params, independent_rngs=True)
