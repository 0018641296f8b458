"""Rule configuration: path scoping and the protocol lexicons.

Every rule carries ``include``/``exclude`` glob lists matched (with
:func:`fnmatch.fnmatch`, where ``*`` crosses directory separators)
against the repo-relative posix path of each file. The default
configuration encodes the protocol's trust map: where secrets may be
serialized, which module owns randomness, which packages the
determinism and broad-except rules police.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.lint.findings import Severity

#: Identifier/attribute names that name protocol secrets. ``x1/x2`` and
#: ``y1/y2`` are the coin representations whose exposure de-anonymizes a
#: client; ``k1/k2`` are representation components; ``t1..t4`` are the
#: withdrawal's blinding scalars (``crypto.blind.PreparedBlinding``);
#: the rest are the conventional names for blinding factors and signing
#: keys.
SECRET_LEXICON: frozenset[str] = frozenset(
    {
        "x1",
        "x2",
        "y1",
        "y2",
        "k1",
        "k2",
        "t1",
        "t2",
        "t3",
        "t4",
        "secret",
        "secrets",
        "_secret",
        "account_secret",
        "sign_secret",
        "secret_key",
        "private_key",
        "blinding",
        "blind_factor",
    }
)

#: Names whose ``==``/``!=`` comparison is timing-sensitive: digests,
#: commitment openings and MAC-like values an adversary can probe.
DIGEST_LEXICON: frozenset[str] = frozenset(
    {
        "digest",
        "coin_hash",
        "key_commitment",
        "nonce",
        "salt",
        "mac",
        "auth_tag",
        "checksum",
    }
)

#: Functions whose return value is digest-typed even without a telling
#: variable name on either side of the comparison.
DIGEST_FUNCTIONS: frozenset[str] = frozenset(
    {"digest", "hexdigest", "payment_nonce", "bound_salt"}
)

#: ``module.function`` call patterns that read the wall clock. Protocol
#: and replay paths must take time from the sim clock (or an explicit
#: ``now`` argument); harnesses measuring durations use
#: ``time.perf_counter``, which is not listed and stays legal.
WALL_CLOCK_CALLS: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Module-level ``random.<fn>`` calls that hit the shared global RNG.
GLOBAL_RANDOM_FUNCTIONS: frozenset[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "expovariate",
        "betavariate",
        "normalvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: ``ClassName.method`` qualified names allowed to serialize secrets to
#: the wire. ``DoubleSpendProof.to_wire`` is the one legitimate egress:
#: revealing the extracted representations IS the double-spend proof.
ALLOWED_WIRE_EGRESS: frozenset[str] = frozenset({"DoubleSpendProof.to_wire"})


@dataclass
class RuleConfig:
    """Where one rule applies and how loudly it reports."""

    enabled: bool = True
    severity: Severity | None = None
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule scans the given repo-relative posix path.

        Matching runs against ``/``-prefixed paths so a ``*/net/*``
        pattern covers ``net/x.py`` whether or not the repo root adds a
        leading component.
        """
        if not self.enabled:
            return False
        anchored = f"/{path}"
        if not any(fnmatch(anchored, pattern) for pattern in self.include):
            return False
        return not any(fnmatch(anchored, pattern) for pattern in self.exclude)


#: Journaled state fields per class: field name -> the journal hooks
#: that persist it. A mutation of one of these fields is compliant when
#: it happens inside a journal scope, or the mutating function also
#: invokes one of the listed hooks, or every caller holds a scope.
JOURNALED_FIELDS: dict[str, dict[str, tuple[str, ...]]] = {
    "Broker": {
        "merchants": ("record_merchant",),
        "tables": ("record_table",),
        "_tickets": ("record_ticket", "drop_ticket"),
        "_batch_tickets": ("record_batch", "drop_batch"),
        "_deposits": ("record_deposit", "drop_record"),
        "_renewals": ("record_renewal", "drop_record"),
        "witness_fault_log": ("record_fault",),
    },
    "WitnessService": {
        "_commitments": ("record_commitment", "drop_commitment"),
        "_spent": ("record_spent", "drop_spent"),
    },
    "Ledger": {
        "history": ("_notify", "on_entry"),
    },
}

#: Alias-expanded call targets that block the event loop outright.
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "select.select",
    }
)

#: Function ids treated as primitively blocking. The store's synchronous
#: I/O surface is listed here instead of being chased through untyped
#: shard lists — the ISSUE's blocking-call classes name "synchronous
#: Store I/O" explicitly, and every one of these methods fsyncs or
#: touches SQLite on some backend.
BLOCKING_QUALNAMES: frozenset[str] = frozenset(
    {
        "repro.store.store.Store.__init__",
        "repro.store.store.Store.put",
        "repro.store.store.Store.delete",
        "repro.store.store.Store.commit",
        "repro.store.store.Store.flush",
        "repro.store.store.Store.compact",
        "repro.store.store.Store.recover",
        "repro.store.store.Store.close",
        "repro.store.store.Store.operation",
    }
)

#: Repo exceptions that deliberately travel as opaque internal-error
#: frames (never rebuilt by name on the client): a store failure ends the
#: serving daemon after that frame, so it is the node's own failure, not a
#: protocol outcome the peer should interpret.
OPAQUE_EXCEPTIONS: frozenset[str] = frozenset(
    {"StoreError", "StoreIOError", "StoreCorruptError"}
)


#: Method names the event loop calls synchronously: the callbacks of an
#: ``asyncio.Protocol``, and ``FrameProtocol.frame_received``, which its
#: ``data_received`` calls once per frame. Each runs on the loop as a
#: coroutine's step does.
PROTOCOL_CALLBACKS: frozenset[str] = frozenset(
    {
        "connection_made",
        "data_received",
        "eof_received",
        "connection_lost",
        "pause_writing",
        "resume_writing",
        "frame_received",
    }
)


@dataclass
class ProgramConfig:
    """Knobs for the whole-program analyses (``repro.lint.program``).

    Module names below default to the real tree; fixture tests override
    them to point at mini-packages.
    """

    #: modules whose coroutine functions and protocol callbacks
    #: (:data:`PROTOCOL_CALLBACKS`) are async-safety roots.
    async_root_modules: tuple[str, ...] = ("repro.daemon",)
    #: alias-expanded call targets that block the event loop.
    blocking_calls: frozenset[str] = field(default_factory=lambda: BLOCKING_CALLS)
    #: function ids treated as primitively blocking.
    blocking_qualnames: frozenset[str] = field(
        default_factory=lambda: BLOCKING_QUALNAMES
    )
    #: journaled class fields and their persistence hooks.
    journaled_fields: dict[str, dict[str, tuple[str, ...]]] = field(
        default_factory=lambda: {
            cls: dict(fields) for cls, fields in JOURNALED_FIELDS.items()
        }
    )
    #: module whose EcashError subclasses the daemon can rebuild by name.
    exception_module: str = "repro.core.exceptions"
    #: base class of wire-mappable protocol errors.
    error_base: str = "EcashError"
    #: (module, constant) naming proof-carrying error classes that must
    #: never escape a handler as a generic error frame.
    proof_carrying_const: tuple[str, str] = ("repro.daemon.wire", "PROOF_CARRYING")
    #: repo exceptions allowed to escape handlers as opaque frames.
    opaque_exceptions: frozenset[str] = field(
        default_factory=lambda: OPAQUE_EXCEPTIONS
    )


@dataclass
class LintConfig:
    """The full engine configuration: lexicons plus per-rule scoping."""

    rules: dict[str, RuleConfig] = field(default_factory=dict)
    secret_lexicon: frozenset[str] = SECRET_LEXICON
    digest_lexicon: frozenset[str] = DIGEST_LEXICON
    digest_functions: frozenset[str] = DIGEST_FUNCTIONS
    wall_clock_calls: frozenset[tuple[str, str]] = WALL_CLOCK_CALLS
    global_random_functions: frozenset[str] = GLOBAL_RANDOM_FUNCTIONS
    allowed_wire_egress: frozenset[str] = ALLOWED_WIRE_EGRESS
    program: ProgramConfig = field(default_factory=ProgramConfig)

    def rule_config(self, rule_id: str) -> RuleConfig:
        """The scoping for ``rule_id`` (a default-everything scope if unset)."""
        return self.rules.setdefault(rule_id, RuleConfig())


def default_config() -> LintConfig:
    """The shipped configuration, encoding the repo's trust map."""
    return LintConfig(
        rules={
            # Secrets must not leak anywhere they could be observed.
            "secret-flow": RuleConfig(),
            # crypto/ must draw randomness through numbers.random_scalar /
            # random_bits (numbers.py itself implements those helpers);
            # unseeded Random() breaks replay everywhere.
            "rng-discipline": RuleConfig(exclude=("*/crypto/numbers.py",)),
            # Exponents live in Z_q; raw pow() bypasses the op counters
            # except in the two packages that own modular exponentiation.
            "mod-arith": RuleConfig(),
            # Digest equality must be constant time wherever an adversary
            # chooses one side of the comparison.
            "ct-compare": RuleConfig(),
            # Replayable paths take time from the sim clock; the obs
            # tracer's perf_counter default is duration-only and exempt.
            "determinism": RuleConfig(exclude=("*/obs/*",)),
            # Swallowing Exception in delivery/fault paths hides protocol
            # bugs the chaos suite exists to surface. The daemon package
            # is delivery code too: its handlers and frame callbacks must
            # only catch the typed frame/handshake/protocol errors.
            "broad-except": RuleConfig(
                include=("*/net/*", "*/faults/*", "*/daemon/*")
            ),
            # -- whole-program analyses (lint --program) --------------
            # Restore/replay rebuilds state with the journal detached by
            # design; fault scenarios corrupt state on purpose.
            "journal-first": RuleConfig(
                exclude=(
                    "*/core/persistence.py",
                    "*/faults/*",
                    "*/baselines/*",
                )
            ),
            "async-safety": RuleConfig(),
            "exception-wire": RuleConfig(),
        }
    )
