"""Summary extraction and call-graph resolution unit tests."""

from __future__ import annotations

import textwrap

from repro.lint.program import (
    CallGraph,
    ProgramIndex,
    module_name,
    summarize_source,
)


def _index(sources: dict[str, str]) -> tuple[ProgramIndex, CallGraph]:
    summaries = [
        summarize_source(
            textwrap.dedent(text), module, module.replace(".", "/") + ".py"
        )
        for module, text in sources.items()
    ]
    index = ProgramIndex(summaries)
    return index, CallGraph(index)


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def test_module_name_strips_src_prefix_and_init() -> None:
    assert module_name("src/repro/net/registry.py") == "repro.net.registry"
    assert module_name("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name("tools/gen_api_docs.py") == "tools.gen_api_docs"
    assert module_name("fixture/pkg/mod.py") == "fixture.pkg.mod"


# ----------------------------------------------------------------------
# summary extraction
# ----------------------------------------------------------------------
RICH = """
    from functools import partial

    METHODS = ("a/b",)

    class Base:
        def ping(self):
            return 1

    class Child(Base):
        count: int

        def act(self, payload):
            try:
                raise ValueError("x")
            except ValueError:
                pass
            self.items.append(payload["k"])  # lint: ignore[journal-first]
            return {"ok": 1}
"""


def test_summary_records_constants_bases_and_ignores() -> None:
    summary = summarize_source(textwrap.dedent(RICH), "m", "m.py")
    assert summary.str_tuples["METHODS"] == ("a/b",)
    assert summary.classes["Child"].bases == ("Base",)
    assert summary.classes["Child"].attr_types == {"count": "int"}
    assert summary.imports["partial"] == "functools.partial"
    assert any(r for r in summary.ignores.values() if "journal-first" in r)


# ----------------------------------------------------------------------
# method resolution
# ----------------------------------------------------------------------
def test_resolves_method_through_attribute_annotation() -> None:
    _, graph = _index(
        {
            "m": """
            class Journal:
                def record(self):
                    return None

            class Service:
                journal: Journal

                def act(self):
                    self.journal.record()
            """
        }
    )
    assert graph.callees("m.Service.act") == ("m.Journal.record",)


def test_resolves_inherited_method_through_base_class() -> None:
    _, graph = _index(
        {
            "m": """
            class Base:
                def ping(self):
                    return 1

            class Child(Base):
                def act(self):
                    self.ping()
            """
        }
    )
    assert graph.callees("m.Child.act") == ("m.Base.ping",)


def test_resolves_cross_module_import_alias() -> None:
    _, graph = _index(
        {
            "pkg.work": """
            def outer():
                return 1
            """,
            "pkg.daemon": """
            from pkg import work

            def drive():
                work.outer()
            """,
        }
    )
    assert graph.callees("pkg.daemon.drive") == ("pkg.work.outer",)


def test_classmethod_cls_call_resolves_to_own_class() -> None:
    _, graph = _index(
        {
            "m": """
            class Conn:
                def __init__(self):
                    self.ready = True

                @classmethod
                def open(cls):
                    return cls()
            """
        }
    )
    assert graph.callees("m.Conn.open") == ("m.Conn.__init__",)


def test_functools_partial_creates_edge_to_wrapped_function() -> None:
    _, graph = _index(
        {
            "m": """
            from functools import partial

            def worker(x):
                return x

            def sched():
                job = partial(worker, 1)
                return job
            """
        }
    )
    assert "m.worker" in graph.callees("m.sched")


# ----------------------------------------------------------------------
# dynamic dispatch
# ----------------------------------------------------------------------
DISPATCH = textwrap.dedent(
    """
    SRV_METHODS = ("x/go",)

    def run(payload):
        return {"ok": 1}

    def helper():
        return None

    TABLE = {"x/go": run}
    OTHER = {"not-a-method": helper}

    def dispatch(m, payload):
        h = TABLE[m]
        return h(payload)
    """
)


def test_table_valued_call_resolves_to_protocol_handlers_only() -> None:
    """``h = TABLE[m]; h(payload)`` reaches handlers, not other tables."""
    _, graph = _index({"m": DISPATCH})
    callees = graph.callees("m.dispatch")
    assert "m.run" in callees
    # The non-protocol dict ("not-a-method" has no slash and is not in a
    # *_METHODS constant) must not be wired into dynamic dispatch.
    assert "m.helper" not in callees
    assert set(graph.dispatch) == {"x/go"}


def test_handler_annotated_param_is_dynamic_dispatch() -> None:
    _, graph = _index(
        {
            "m": DISPATCH
            + textwrap.dedent(
                """
                def invoke(handler: Handler, payload):
                    return handler(payload)
                """
            )
        }
    )
    assert "m.run" in graph.callees("m.invoke")


def test_plain_callable_param_gets_no_edge() -> None:
    """``memoized(pool, compute)``-style callbacks are not dispatch."""
    _, graph = _index(
        {
            "m": DISPATCH
            + textwrap.dedent(
                """
                def memoized(pool, compute):
                    return compute()
                """
            )
        }
    )
    assert graph.callees("m.memoized") == ()


# ----------------------------------------------------------------------
# exception hierarchy helpers
# ----------------------------------------------------------------------
def test_exception_ancestors_walk_transitive_bases() -> None:
    index, _ = _index(
        {
            "m": """
            class BaseErr(Exception):
                pass

            class MidErr(BaseErr):
                pass

            class LeafErr(MidErr):
                pass
            """
        }
    )
    assert set(index.exception_ancestors("LeafErr")) == {
        "MidErr",
        "BaseErr",
        "Exception",
    }
    assert index.defining_module("LeafErr") == "m"
