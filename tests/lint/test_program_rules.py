"""Fixture mini-packages proving each program rule catches its bug class."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.config import LintConfig, ProgramConfig
from repro.lint.findings import Finding
from repro.lint.program import run_program


def _run(
    tmp_path: Path,
    files: dict[str, str],
    program: ProgramConfig,
    rule: str,
) -> list[Finding]:
    for relpath, text in files.items():
        file = tmp_path / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(text))
    config = LintConfig(program=program)
    return run_program([tmp_path], config=config, only=[rule], root=tmp_path).findings


# ----------------------------------------------------------------------
# journal-first
# ----------------------------------------------------------------------
JOURNALED = """
    class Journal:
        def record_item(self, key, value):
            return None

    class Service:
        journal: Journal

        def __init__(self, store):
            self.store = store
            self.items = {}

        def good_hooked(self, key, value):
            self.journal.record_item(key, value)
            self.items[key] = value

        def good_scoped(self, key, value):
            with self.store.operation():
                self.items[key] = value

        def good_helper(self, key):
            del self.items[key]

        def driver(self, key):
            with self.store.operation():
                self.good_helper(key)

        def bad_set(self, key, value):
            self.items[key] = value

        def bad_pop(self, key):
            self.items.pop(key, None)

        def waived(self, key, value):
            self.items[key] = value  # lint: ignore[journal-first]
"""


def test_journal_first_flags_unjournaled_mutations_only(tmp_path: Path) -> None:
    program = ProgramConfig(
        journaled_fields={"Service": {"items": ("record_item",)}}
    )
    findings = _run(
        tmp_path, {"svc/state.py": JOURNALED}, program, "journal-first"
    )
    assert len(findings) == 2, [f.message for f in findings]
    kinds = sorted(m for f in findings for m in [f.message])
    assert any("(setitem)" in m and "Service.bad_set'" in m for m in kinds)
    assert any("(call:pop)" in m and "Service.bad_pop'" in m for m in kinds)
    # hooked, scoped, scoped-caller-only and suppressed mutations pass
    assert all("good" not in f.message and "waived" not in f.message for f in findings)


# ----------------------------------------------------------------------
# async-safety
# ----------------------------------------------------------------------
ASYNC_WORK = """
    import time

    def outer():
        return inner()

    def inner():
        time.sleep(0.01)

    def pure():
        return 1
"""

ASYNC_STORE = """
    class Store:
        def flush(self):
            return None
"""

ASYNC_DAEMON = """
    import time

    from aroot import work
    from aroot.store import Store

    async def handle_tick():
        work.outer()

    async def napper():
        time.sleep(1)

    async def saver(store: Store):
        store.flush()

    async def quiet():
        work.pure()
"""


def test_async_safety_sees_through_two_levels_of_indirection(
    tmp_path: Path,
) -> None:
    program = ProgramConfig(
        async_root_modules=("aroot",),
        blocking_qualnames=frozenset({"aroot.store.Store.flush"}),
    )
    findings = _run(
        tmp_path,
        {
            "aroot/daemon.py": ASYNC_DAEMON,
            "aroot/work.py": ASYNC_WORK,
            "aroot/store.py": ASYNC_STORE,
        },
        program,
        "async-safety",
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 3, messages
    # transitive: coroutine -> outer -> inner -> time.sleep, with the
    # full chain spelled out in the message
    assert any(
        "'handle_tick'" in m and "outer -> inner [time.sleep]" in m
        for m in messages
    )
    # direct primitive call
    assert any("'napper'" in m and "time.sleep" in m for m in messages)
    # configured primitively-blocking qualname (store I/O surface)
    assert any(
        "'saver'" in m and "Store.flush [synchronous store I/O]" in m
        for m in messages
    )
    # a coroutine calling only non-blocking helpers stays silent
    assert not any("quiet" in m for m in messages)


# ----------------------------------------------------------------------
# exception-wire
# ----------------------------------------------------------------------
EXC_ERRORS = """
    class BaseErr(Exception):
        pass

    class ProofErr(BaseErr):
        def __init__(self, proof):
            super().__init__("double spend")
            self.proof = proof

    class OtherErr(BaseErr):
        pass
"""

EXC_WIRE = """
    PROOF_CARRYING = ("ProofErr", "GhostErr")
"""

EXC_SERVER = """
    from excwire.errors import BaseErr, OtherErr, ProofErr

    class ForeignErr(BaseErr):
        pass

    class StrayErr(Exception):
        pass

    class AllowedErr(Exception):
        pass

    def validate(payload):
        if not payload:
            raise ForeignErr("empty")

    def build(core):
        def op_run(payload):
            validate(payload)
            if payload["x"]:
                raise ProofErr("p")
            return {"ok": 1}

        def op_stray(payload):
            if payload["x"]:
                raise StrayErr()
            raise AllowedErr()

        def op_safe(payload):
            try:
                validate(payload)
                raise OtherErr()
            except BaseErr:
                return {"ok": 0}
            return {"ok": 1}

        return {"op/run": op_run, "op/stray": op_stray, "op/safe": op_safe}
"""


def _exc_config() -> ProgramConfig:
    return ProgramConfig(
        exception_module="excwire.errors",
        error_base="BaseErr",
        proof_carrying_const=("excwire.wire", "PROOF_CARRYING"),
        opaque_exceptions=frozenset({"AllowedErr"}),
    )


def test_exception_wire_classifies_every_escape(tmp_path: Path) -> None:
    findings = _run(
        tmp_path,
        {
            "excwire/errors.py": EXC_ERRORS,
            "excwire/wire.py": EXC_WIRE,
            "excwire/server.py": EXC_SERVER,
        },
        _exc_config(),
        "exception-wire",
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 4, messages
    # proof-carrying error escaping as a generic frame
    assert any(
        "proof-carrying error 'ProofErr'" in m and "'op/run'" in m
        for m in messages
    )
    # protocol error defined outside the registry module, reached
    # interprocedurally through the unguarded validate() call
    assert any(
        "'ForeignErr'" in m
        and "defined in 'excwire.server', not 'excwire.errors'" in m
        for m in messages
    )
    # repo-defined non-protocol exception without an opaque allowance
    assert any(
        "non-protocol exception 'StrayErr'" in m and "'op/stray'" in m
        for m in messages
    )
    # registry hygiene: a proof-carrying name with no class behind it
    assert any("PROOF_CARRYING names 'GhostErr'" in m for m in messages)
    # AllowedErr is allowlisted and op_safe catches everything it raises
    assert not any("AllowedErr" in m or "OtherErr" in m for m in messages)


ASYNC_PROTOCOL = """
    import asyncio

    from aroot import work

    class Connection(asyncio.Protocol):
        def data_received(self, data):
            work.outer()

        def eof_received(self):
            self.frame_received(None)

        def frame_received(self, frame):
            work.outer()

        def helper(self):
            work.outer()
"""


def test_async_safety_roots_include_protocol_callbacks(tmp_path: Path) -> None:
    """A request served inside ``data_received`` blocks the loop as a
    coroutine's would: the callback is a root, reported at its own call
    site, and a root calling a root is reported once, at the callee."""
    program = ProgramConfig(async_root_modules=("aroot",))
    findings = _run(
        tmp_path,
        {"aroot/protocol.py": ASYNC_PROTOCOL, "aroot/work.py": ASYNC_WORK},
        program,
        "async-safety",
    )
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2, messages
    assert any(
        "callback 'Connection.data_received'" in m and "outer -> inner [time.sleep]" in m
        for m in messages
    )
    assert any("callback 'Connection.frame_received'" in m for m in messages)
    # not a callback, and a callback that only calls a callback: silent
    assert not any("helper" in m or "eof_received" in m for m in messages)
