"""Tests for the tracer: nesting, clocks, error capture, retention cap."""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


class FakeClock:
    """A manually advanced clock for deterministic durations."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_span_records_duration_from_injected_clock():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("work"):
        clock.advance(2.5)
    (record,) = tracer.finished
    assert record.name == "work"
    assert record.duration == 2.5


def test_nested_spans_link_parent_and_trace():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    inner_rec, outer_rec = tracer.finished  # children finish first
    assert inner_rec.name == "inner" and outer_rec.name == "outer"
    assert outer_rec.parent_id is None
    assert inner_rec.parent_id == outer_rec.span_id
    assert inner_rec.trace_id == outer_rec.trace_id
    assert tracer.children_of(outer.span_id) == [inner_rec]
    assert inner.span_id != outer.span_id


def test_sibling_spans_share_parent_not_each_other():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("parent") as parent:
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    by_name = {record.name: record for record in tracer.finished}
    assert by_name["first"].parent_id == parent.span_id
    assert by_name["second"].parent_id == parent.span_id
    assert len(tracer.children_of(parent.span_id)) == 2


def test_new_root_after_exit_starts_fresh_trace():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    a_rec, b_rec = tracer.finished
    assert a_rec.parent_id is None and b_rec.parent_id is None
    assert a_rec.trace_id != b_rec.trace_id


def test_span_attributes_and_error_capture():
    tracer = Tracer(clock=FakeClock())
    try:
        with tracer.span("fails", kind="demo") as span:
            span.set("detail", 42)
            raise KeyError("boom")
    except KeyError:
        pass
    (record,) = tracer.finished
    assert record.attributes == {"kind": "demo", "detail": 42}
    assert record.error == "KeyError"


def test_finished_spans_feed_registry_histogram():
    registry = MetricsRegistry()
    clock = FakeClock()
    tracer = Tracer(clock=clock, registry=registry)
    with tracer.span("step"):
        clock.advance(1.0)
    digest = registry.histogram("span_duration_seconds", span="step").summary()
    assert digest["count"] == 1
    assert digest["max"] == 1.0


def test_retention_cap_counts_dropped():
    tracer = Tracer(clock=FakeClock(), max_spans=3)
    for _ in range(5):
        with tracer.span("tick"):
            pass
    assert len(tracer.finished) == 3
    assert tracer.dropped == 2
    digest = tracer.summary()
    assert digest["span_count"] == 3 and digest["dropped"] == 2
    # Durations aggregate past the cap: every finished span, not the retained three.
    assert digest["by_name"]["tick"]["count"] == 5


def test_summary_aggregates_by_name():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for duration in (1.0, 3.0):
        with tracer.span("op"):
            clock.advance(duration)
    stats = tracer.summary()["by_name"]["op"]
    assert stats["count"] == 2
    assert stats["total"] == 4.0
    assert stats["mean"] == 2.0
    assert stats["min"] == 1.0 and stats["max"] == 3.0


def test_reset_clears_records():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("gone"):
        pass
    tracer.reset()
    assert tracer.finished == [] and tracer.dropped == 0
    assert tracer.summary()["by_name"] == {}
