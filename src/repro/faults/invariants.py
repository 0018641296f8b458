"""Safety-invariant checking for chaos runs.

The paper's guarantee is not "payments succeed" — under enough injected
chaos they may not — but that *no adversary schedule ever lets money be
created*: a coin is credited from the broker's float at most once, every
double-spend attempt yields a publicly verifiable ``(x1, x2)``
extraction, a witness that signed twice is slashed at deposit time, and
the ledger stays conserved throughout. :class:`InvariantChecker` asserts
exactly those properties against a finished (or mid-flight) system, and
the chaos scenarios run it after every seeded run. Evidence — a fault
entry's two transcripts, a refusal's proof — is judged by the
:class:`~repro.core.arbiter.Arbiter`, the public third party the paper
hands disputes to, and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.arbiter import Arbiter, Verdict
from repro.core.coin import Coin
from repro.core.system import EcashSystem
from repro.core.transcripts import DoubleSpendProof


@dataclass(frozen=True)
class InvariantResult:
    """The verdict on one safety invariant."""

    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        """Fixed-format line for the chaos report."""
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


class InvariantChecker:
    """Checks the paper's safety properties on an :class:`EcashSystem`.

    Construct it *before* the run (it snapshots the registered security
    deposits) and call the check methods — or :meth:`check_all` — after.
    """

    def __init__(self, system: EcashSystem) -> None:
        self.system = system
        self.broker = system.broker
        self.arbiter = Arbiter(
            params=system.params,
            broker_blind_public=system.broker.blind_public,
            broker_sign_public=system.broker.sign_public,
        )
        self._initial_deposits = {
            merchant_id: account.security_deposit
            for merchant_id, account in self.broker.merchants.items()
        }

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def ledger_conserved(self) -> InvariantResult:
        """Minted money equals held plus burned money, always."""
        ledger = self.broker.ledger
        return InvariantResult(
            name="ledger-conserved",
            ok=ledger.conserved(),
            detail=(
                f"minted={ledger.minted} held={ledger.total_internal()} "
                f"burned={ledger.burned}"
            ),
        )

    def single_credit_per_coin(self) -> InvariantResult:
        """No coin is credited from the broker's float more than once.

        Every credit funded by the float must correspond to exactly one
        deposit record (the deposit database is keyed by the bare coin, so
        one record *is* one coin); every additional credit for an
        already-deposited coin must have been funded from a witness's
        security-deposit escrow and be backed by a fault-log entry.
        """
        float_credits = [
            entry
            for entry in self.broker.ledger.history
            if entry[0] == self.broker.account and entry[2] == "coin deposit"
        ]
        escrow_credits = [
            entry
            for entry in self.broker.ledger.history
            if entry[0].startswith("deposit:") and entry[2] == "coin deposit"
        ]
        coins_deposited = len(self.broker._deposits)
        ok = len(float_credits) == coins_deposited and len(escrow_credits) == len(
            self.broker.witness_fault_log
        )
        return InvariantResult(
            name="single-credit-per-coin",
            ok=ok,
            detail=(
                f"float-credits={len(float_credits)} coins-deposited={coins_deposited} "
                f"escrow-credits={len(escrow_credits)} "
                f"witness-faults={len(self.broker.witness_fault_log)}"
            ),
        )

    def witness_faults_slashed(self) -> InvariantResult:
        """Every logged witness fault carries evidence and cost a slash.

        The arbiter must convict the accused witness on each fault-log
        entry's two transcripts (same bare coin, different merchants, both
        signatures valid) — and the witness's escrow must be short by
        exactly the sum of the slashed denominations.
        """
        slashed: dict[str, int] = {}
        for witness_id, first, second in self.broker.witness_fault_log:
            account = self.broker.merchants.get(witness_id)
            if account is None:
                return InvariantResult(
                    "witness-faults-slashed", False, f"unknown witness {witness_id!r}"
                )
            judgment = self.arbiter.judge_conflicting_transcripts(
                account.public_key, first, second
            )
            if judgment.verdict is not Verdict.WITNESS_VIOLATED:
                return InvariantResult(
                    name="witness-faults-slashed",
                    ok=False,
                    detail=(
                        f"fault evidence against {witness_id} unverifiable "
                        f"({judgment.verdict.value}: {judgment.reason})"
                    ),
                )
            slashed[witness_id] = slashed.get(witness_id, 0) + (
                second.transcript.coin.denomination
            )
        for witness_id, amount in slashed.items():
            expected = self._initial_deposits[witness_id] - amount
            actual = self.broker.security_deposit_balance(witness_id)
            if actual != expected:
                return InvariantResult(
                    name="witness-faults-slashed",
                    ok=False,
                    detail=(
                        f"{witness_id} escrow={actual}, expected {expected} "
                        f"after slashing {amount}"
                    ),
                )
        return InvariantResult(
            name="witness-faults-slashed",
            ok=True,
            detail=f"faults={len(self.broker.witness_fault_log)} slashed={slashed or 0}",
        )

    def double_spend_proofs_verify(
        self, proofs: list[tuple[DoubleSpendProof, Coin]]
    ) -> InvariantResult:
        """The arbiter convicts the client on every refusal proof."""
        bad = sum(
            1
            for proof, coin in proofs
            if self.arbiter.judge_double_spend_claim(coin, proof).verdict
            is not Verdict.CLIENT_DOUBLE_SPENT
        )
        return InvariantResult(
            name="double-spend-proofs-verify",
            ok=bad == 0,
            detail=f"proofs={len(proofs)} unverifiable={bad}",
        )

    # ------------------------------------------------------------------
    # All at once
    # ------------------------------------------------------------------
    def check_all(
        self, proofs: list[tuple[DoubleSpendProof, Coin]] | None = None
    ) -> list[InvariantResult]:
        """Run every invariant; ``proofs`` feeds the extraction check."""
        results = [
            self.ledger_conserved(),
            self.single_credit_per_coin(),
            self.witness_faults_slashed(),
        ]
        if proofs is not None:
            results.append(self.double_spend_proofs_verify(proofs))
        return results


__all__ = ["InvariantChecker", "InvariantResult"]
