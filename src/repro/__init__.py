"""repro — reproduction of "Combating Double-Spending Using Cooperative
P2P Systems" (Osipkov, Vasserman, Kim, Hopper — ICDCS 2007).

An anonymous "bearer" e-cash system with real-time double-spending
prevention: every coin is non-malleably assigned to a randomly chosen
merchant (its *witness*) and a payment is only cashable once the witness
has signed the transcript. See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.

Quick start::

    from repro import EcashSystem, run_withdrawal, run_payment, run_deposit

    system = EcashSystem(seed=7)
    client = system.new_client()
    info = system.standard_info(denomination=25, now=0)
    coin = run_withdrawal(client, system.broker, info)
    merchant = system.merchant("bob-news")
    witness = system.witness_of(coin)
    run_payment(client, coin, merchant, witness, now=10)
    run_deposit(merchant, system.broker, now=20)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        Arbiter,
        Broker,
        Client,
        Coin,
        CoinInfo,
        DoubleSpendError,
        EcashSystem,
        Merchant,
        StoredCoin,
        Wallet,
        WitnessService,
        default_params,
        run_deposit,
        run_payment,
        run_renewal,
        run_withdrawal,
        standard_info,
        test_params,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "Arbiter", "Broker", "Client", "Coin", "CoinInfo", "DoubleSpendError",
            "EcashSystem", "Merchant", "StoredCoin", "Wallet", "WitnessService",
            "default_params", "run_deposit", "run_payment", "run_renewal",
            "run_withdrawal", "standard_info", "test_params",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "Arbiter",
    "Broker",
    "Client",
    "Coin",
    "CoinInfo",
    "DoubleSpendError",
    "EcashSystem",
    "Merchant",
    "StoredCoin",
    "Wallet",
    "WitnessService",
    "default_params",
    "run_deposit",
    "run_payment",
    "run_renewal",
    "run_withdrawal",
    "standard_info",
    "test_params",
    "__version__",
]
