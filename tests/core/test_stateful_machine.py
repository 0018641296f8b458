"""Hypothesis stateful model of the e-cash economy.

Hypothesis drives arbitrary interleavings of withdrawals, payments,
deposits, renewals and double-spend attempts; after every step the
machine's invariants must hold:

* the ledger conserves money;
* a merchant's revenue equals exactly the value of its accepted payments;
* security deposits stay intact in honest runs;
* an honest witness never signs the same coin twice.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.exceptions import DoubleSpendError, EcashError
from repro.core.params import test_params as make_test_params
from repro.core.protocols import run_deposit, run_payment, run_renewal, run_withdrawal
from repro.core.system import EcashSystem

MERCHANTS = ("shop-a", "shop-b", "shop-c")


class EcashMachine(RuleBasedStateMachine):
    """One deployment, one client, adversarial scheduling by hypothesis."""

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed):
        self.system = EcashSystem(
            merchant_ids=MERCHANTS, params=make_test_params(), seed=seed
        )
        self.rng = random.Random(seed)
        self.client = self.system.new_client()
        self.clock = 0
        self.live = []          # spendable StoredCoins
        self.spent = []         # coins already spent once (attack material)
        self.accepted = {m: 0 for m in MERCHANTS}

    def _tick(self):
        self.clock += self.rng.randrange(1, 200)
        return self.clock

    @rule(denomination=st.sampled_from([1, 5, 25, 100]))
    def withdraw(self, denomination):
        now = self._tick()
        stored = run_withdrawal(
            self.client, self.system.broker, self.system.standard_info(denomination, now)
        )
        self.live.append(stored)

    @precondition(lambda self: self.live)
    @rule(choice=st.randoms(use_true_random=False))
    def pay(self, choice):
        now = self._tick()
        stored = self.live.pop(choice.randrange(len(self.live)))
        merchant_id = choice.choice(
            [m for m in MERCHANTS if m != stored.coin.witness_id]
        )
        run_payment(
            self.client, stored, self.system.merchant(merchant_id),
            self.system.witness_of(stored), now,
        )
        self.accepted[merchant_id] += stored.denomination
        self.spent.append(stored)

    @precondition(lambda self: self.spent)
    @rule(choice=st.randoms(use_true_random=False))
    def double_spend_attempt(self, choice):
        now = self._tick()
        stored = choice.choice(self.spent)
        merchant_id = choice.choice(
            [m for m in MERCHANTS if m != stored.coin.witness_id]
        )
        self.client.wallet.add(stored)
        try:
            run_payment(
                self.client, stored, self.system.merchant(merchant_id),
                self.system.witness_of(stored), now,
            )
            raise AssertionError("honest witness allowed a double spend")
        except DoubleSpendError as refusal:
            assert refusal.proof.verify(self.system.params, stored.coin)
        except EcashError:
            pass  # merchant-side refusal (already saw the coin) is also fine
        finally:
            self.client.mark_spent(stored)

    @precondition(lambda self: self.live)
    @rule(choice=st.randoms(use_true_random=False))
    def renew(self, choice):
        now = self._tick()
        stored = self.live.pop(choice.randrange(len(self.live)))
        fresh = run_renewal(
            self.client, stored, self.system.broker,
            self.system.standard_info(stored.denomination, now), now,
        )
        self.live.append(fresh)

    @rule(merchant_id=st.sampled_from(MERCHANTS))
    def deposit(self, merchant_id):
        now = self._tick()
        run_deposit(self.system.merchant(merchant_id), self.system.broker, now)

    @invariant()
    def money_is_conserved(self):
        if not hasattr(self, "system"):
            return
        assert self.system.ledger.conserved()

    @invariant()
    def security_deposits_intact(self):
        if not hasattr(self, "system"):
            return
        for merchant_id in MERCHANTS:
            assert self.system.broker.security_deposit_balance(merchant_id) == 100_00

    @invariant()
    def revenue_matches_accepted_payments(self):
        if not hasattr(self, "system"):
            return
        for merchant_id in MERCHANTS:
            merchant = self.system.merchant(merchant_id)
            pending = sum(
                signed.transcript.coin.denomination
                for signed in merchant.pending_deposits()
            )
            deposited = self.accepted[merchant_id] - pending
            assert self.system.broker.merchant_balance(merchant_id) == deposited
            assert 0 <= deposited <= self.accepted[merchant_id]


EcashMachineTest = EcashMachine.TestCase
EcashMachineTest.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None
)
