"""repro.faults — deterministic fault injection and safety checking.

The paper's central claim is a *safety* claim: whatever the network does
— drops, delays, replays, crashes — and whoever misbehaves — clients,
merchants, witnesses, even a stale broker — no adversary schedule lets
money be created or a cheater go unidentified. This package turns that
claim into an executable test surface:

* :mod:`repro.faults.plan` / :mod:`repro.faults.injector` — declarative,
  seeded fault plans (drop / delay / duplicate / reorder / corrupt rules
  plus crash windows) executed against the simulated network via the
  first-class ``Network.fault_filter`` hook;
* :mod:`repro.faults.recovery` — deterministic exponential backoff and
  per-peer circuit breakers used by the hardened client retry loop;
* :mod:`repro.faults.byzantine` — scripted misbehaving parties
  (equivocating witness, double-spending client, double-depositing
  merchant, stale-table broker);
* :mod:`repro.faults.invariants` — the safety invariants checked after
  every chaos run;
* :mod:`repro.faults.scenarios` — the seeded end-to-end chaos suite
  behind ``python -m repro chaos``.

``byzantine`` and ``scenarios`` are *not* imported eagerly here: they
depend on :mod:`repro.net.services`, which itself uses
:mod:`repro.faults.recovery` — import them as submodules.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.injector import (
        DEFAULT_REORDER_HOLD,
        FaultInjector,
        InjectionEvent,
        corrupt_message,
    )
    from repro.faults.invariants import InvariantChecker, InvariantResult
    from repro.faults.plan import CrashWindow, FaultKind, FaultPlan, FaultRule
    from repro.faults.recovery import BackoffPolicy, CircuitBreaker

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.injector": (
            "DEFAULT_REORDER_HOLD", "FaultInjector", "InjectionEvent",
            "corrupt_message",
        ),
        "repro.faults.invariants": ("InvariantChecker", "InvariantResult"),
        "repro.faults.plan": ("CrashWindow", "FaultKind", "FaultPlan", "FaultRule"),
        "repro.faults.recovery": ("BackoffPolicy", "CircuitBreaker"),
    },
)

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "CrashWindow",
    "DEFAULT_REORDER_HOLD",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "InjectionEvent",
    "InvariantChecker",
    "InvariantResult",
    "corrupt_message",
]
