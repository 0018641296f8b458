"""A minimal bank ledger.

The paper treats the bank-broker interaction as orthogonal ("can follow
standard financial protocols"). We still provide a concrete ledger so the
end-to-end examples and tests can assert that money is conserved: client
funding in, merchant credits out, faulty-witness payouts drawn from the
witness's security deposit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.exceptions import InsufficientFundsError
from repro.crypto.serialize import WireFields, as_int, as_text

#: One ledger movement: ``(source, destination, memo, amount)``.
LedgerEntry = tuple[str, str, str, int]


@dataclass
class Account:
    """A ledger account with a non-negative balance in cents."""

    owner: str
    balance: int = 0


@dataclass
class Ledger:
    """Double-entry-ish ledger: every movement is a transfer between accounts.

    External money enters through :meth:`mint` (a client's credit-card or
    gift-card purchase) and leaves through :meth:`burn` (a merchant cashing
    out to its real bank account); both are logged so conservation can be
    checked.
    """

    accounts: dict[str, Account] = field(default_factory=dict)
    minted: int = 0
    burned: int = 0
    history: list[LedgerEntry] = field(default_factory=list)
    #: Durability hook: called with ``(sequence, entry)`` after every
    #: history append, so a journal can persist each movement before the
    #: enclosing protocol step acknowledges (set by
    #: :func:`repro.core.persistence.attach_broker_store`).
    on_entry: Callable[[int, LedgerEntry], None] | None = field(
        default=None, repr=False, compare=False
    )

    def open_account(self, owner: str) -> Account:
        """Create (or return) the account for ``owner``."""
        return self.accounts.setdefault(owner, Account(owner=owner))

    def balance(self, owner: str) -> int:
        """Current balance of ``owner`` (0 for unknown accounts)."""
        account = self.accounts.get(owner)
        return account.balance if account else 0

    def mint(self, owner: str, amount: int, memo: str = "external funding") -> None:
        """Bring external money into the system (credit-card purchase...)."""
        self._check_amount(amount)
        self.open_account(owner).balance += amount
        self.minted += amount
        self.history.append(("<external>", owner, memo, amount))
        self._notify()

    def burn(self, owner: str, amount: int, memo: str = "cash out") -> None:
        """Pay real-world money out of the system.

        Raises:
            InsufficientFundsError: if the account cannot cover ``amount``.
        """
        self._check_amount(amount)
        account = self.open_account(owner)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{owner} has {account.balance}, cannot cash out {amount}"
            )
        account.balance -= amount
        self.burned += amount
        self.history.append((owner, "<external>", memo, amount))
        self._notify()

    def transfer(self, source: str, destination: str, amount: int, memo: str = "") -> None:
        """Move money between two internal accounts.

        Raises:
            InsufficientFundsError: if ``source`` cannot cover ``amount``.
        """
        self._check_amount(amount)
        src = self.open_account(source)
        dst = self.open_account(destination)
        if src.balance < amount:
            raise InsufficientFundsError(
                f"{source} has {src.balance}, cannot transfer {amount} to {destination}"
            )
        src.balance -= amount
        dst.balance += amount
        self.history.append((source, destination, memo, amount))
        self._notify()

    def total_internal(self) -> int:
        """Sum of all account balances."""
        return sum(account.balance for account in self.accounts.values())

    def conserved(self) -> bool:
        """Money conservation invariant: minted == held + burned."""
        return self.minted == self.total_internal() + self.burned

    def _notify(self) -> None:
        if self.on_entry is not None:
            self.on_entry(len(self.history) - 1, self.history[-1])

    @staticmethod
    def _check_amount(amount: int) -> None:
        if amount <= 0:
            raise ValueError("ledger amounts must be positive")


def entry_to_record(entry: LedgerEntry) -> dict[str, object]:
    """One ledger movement as stored at rest (see :mod:`repro.core.persistence`)."""
    source, destination, memo, amount = entry
    return {"source": source, "destination": destination, "memo": memo, "amount": amount}


def entry_from_record(fields: WireFields, prefix: str = "") -> LedgerEntry:
    """Parse :func:`entry_to_record` fields, read from under ``prefix``."""
    return (
        as_text(fields[prefix + "source"]),
        as_text(fields[prefix + "destination"]),
        as_text(fields[prefix + "memo"]),
        as_int(fields[prefix + "amount"]),
    )


__all__ = ["Account", "Ledger", "LedgerEntry", "entry_from_record", "entry_to_record"]
