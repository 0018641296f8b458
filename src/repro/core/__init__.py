"""The paper's primary contribution: witness-based anonymous e-cash.

Public API map:

* Parameters — :func:`repro.core.params.default_params`,
  :func:`repro.core.params.test_params`.
* Parties — :class:`repro.core.broker.Broker`,
  :class:`repro.core.client.Client`, :class:`repro.core.merchant.Merchant`,
  :class:`repro.core.witness.WitnessService`,
  :class:`repro.core.arbiter.Arbiter`.
* Objects — :class:`repro.core.coin.Coin`,
  :class:`repro.core.transcripts.PaymentTranscript`, ...
* Orchestration — :mod:`repro.core.protocols` (in-memory) and
  :class:`repro.core.system.EcashSystem` (one-call deployment).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.arbiter import Arbiter, Judgment, Verdict
    from repro.core.bank import Ledger
    from repro.core.broker import Broker, DepositOutcome, DepositResult
    from repro.core.client import Client, StoredCoin, Wallet
    from repro.core.coin import BareCoin, Coin
    from repro.core.exceptions import (
        CommitmentError,
        CommitmentOutstandingError,
        DoubleDepositError,
        DoubleSpendError,
        EcashError,
        ExpiredCoinError,
        InsufficientFundsError,
        InvalidCoinError,
        InvalidPaymentError,
        ProtocolViolationError,
        RenewalRefusedError,
        ServiceUnavailableError,
        UnknownMerchantError,
        WrongWitnessError,
    )
    from repro.core.escrow import EscrowedCoin, TrusteeService, run_escrowed_withdrawal
    from repro.core.fair_exchange import FairExchangeArbiter, Offer, make_offer
    from repro.core.incentives import FeeCollectingBroker, FeePolicy
    from repro.core.info import CoinInfo, standard_info
    from repro.core.merchant import Merchant, PaymentRequest
    from repro.core.multiwitness import MultiWitnessCoin, MultiWitnessService, spend_multi
    from repro.core.params import SystemParams, default_params, test_params
    from repro.core.protocols import (
        run_batch_withdrawal,
        run_deposit,
        run_payment,
        run_renewal,
        run_withdrawal,
    )
    from repro.core.system import EcashSystem, MerchantNode
    from repro.core.transcripts import (
        CommitmentRequest,
        DoubleSpendProof,
        PaymentTranscript,
        SignedTranscript,
        WitnessCommitment,
    )
    from repro.core.witness import WitnessService
    from repro.core.witness_ranges import (
        SignedWitnessEntry,
        WitnessAssignmentTable,
        WitnessRange,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.arbiter": ("Arbiter", "Judgment", "Verdict"),
        "repro.core.bank": ("Ledger",),
        "repro.core.broker": ("Broker", "DepositOutcome", "DepositResult"),
        "repro.core.client": ("Client", "StoredCoin", "Wallet"),
        "repro.core.coin": ("BareCoin", "Coin"),
        "repro.core.exceptions": (
            "CommitmentError", "CommitmentOutstandingError", "DoubleDepositError",
            "DoubleSpendError", "EcashError", "ExpiredCoinError",
            "InsufficientFundsError", "InvalidCoinError", "InvalidPaymentError",
            "ProtocolViolationError", "RenewalRefusedError", "ServiceUnavailableError",
            "UnknownMerchantError", "WrongWitnessError",
        ),
        "repro.core.escrow": (
            "EscrowedCoin", "TrusteeService", "run_escrowed_withdrawal",
        ),
        "repro.core.fair_exchange": ("FairExchangeArbiter", "Offer", "make_offer"),
        "repro.core.incentives": ("FeeCollectingBroker", "FeePolicy"),
        "repro.core.info": ("CoinInfo", "standard_info"),
        "repro.core.merchant": ("Merchant", "PaymentRequest"),
        "repro.core.multiwitness": (
            "MultiWitnessCoin", "MultiWitnessService", "spend_multi",
        ),
        "repro.core.params": ("SystemParams", "default_params", "test_params"),
        "repro.core.protocols": (
            "run_batch_withdrawal", "run_deposit", "run_payment", "run_renewal",
            "run_withdrawal",
        ),
        "repro.core.system": ("EcashSystem", "MerchantNode"),
        "repro.core.transcripts": (
            "CommitmentRequest", "DoubleSpendProof", "PaymentTranscript",
            "SignedTranscript", "WitnessCommitment",
        ),
        "repro.core.witness": ("WitnessService",),
        "repro.core.witness_ranges": (
            "SignedWitnessEntry", "WitnessAssignmentTable", "WitnessRange",
        ),
    },
)

__all__ = [
    "Arbiter",
    "Judgment",
    "Verdict",
    "Ledger",
    "Broker",
    "DepositOutcome",
    "DepositResult",
    "Client",
    "StoredCoin",
    "Wallet",
    "BareCoin",
    "Coin",
    "CoinInfo",
    "standard_info",
    "Merchant",
    "PaymentRequest",
    "SystemParams",
    "default_params",
    "test_params",
    "run_batch_withdrawal",
    "run_deposit",
    "run_payment",
    "run_renewal",
    "run_withdrawal",
    "EscrowedCoin",
    "TrusteeService",
    "run_escrowed_withdrawal",
    "FairExchangeArbiter",
    "Offer",
    "make_offer",
    "FeeCollectingBroker",
    "FeePolicy",
    "MultiWitnessCoin",
    "MultiWitnessService",
    "spend_multi",
    "EcashSystem",
    "MerchantNode",
    "CommitmentRequest",
    "DoubleSpendProof",
    "PaymentTranscript",
    "SignedTranscript",
    "WitnessCommitment",
    "WitnessService",
    "SignedWitnessEntry",
    "WitnessAssignmentTable",
    "WitnessRange",
    # exceptions
    "EcashError",
    "CommitmentError",
    "CommitmentOutstandingError",
    "DoubleDepositError",
    "DoubleSpendError",
    "ExpiredCoinError",
    "InsufficientFundsError",
    "InvalidCoinError",
    "InvalidPaymentError",
    "ProtocolViolationError",
    "RenewalRefusedError",
    "ServiceUnavailableError",
    "UnknownMerchantError",
    "WrongWitnessError",
]
