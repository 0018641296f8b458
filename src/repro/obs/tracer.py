"""Span-based protocol tracing.

A *span* covers one named stretch of work (``protocol.payment``,
``net.withdrawal``). Spans nest: entering a span while another is open
records the parent/child edge, so a full coin lifecycle shows up as a
withdrawal → payment → deposit tree with the witness-sign leg inside the
payment. Timestamps come from an injectable clock — wall clock by default,
or the discrete-event simulator's clock for networked runs, so simulated
traces carry simulated time.

Parent tracking uses a :class:`contextvars.ContextVar`. Interleaved
generator processes on one event loop share that context, so a process's
span is made current only while one of its steps runs
(:meth:`ActiveSpan.run`), never across a suspension.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.obs.registry import MetricsRegistry

Clock = Callable[[], float]
_T = TypeVar("_T")

_CURRENT: ContextVar[tuple[int, int] | None] = ContextVar("obs_current_span", default=None)


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float
    attributes: dict[str, object] = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        """Elapsed clock units between start and end."""
        return self.end - self.start

    def to_dict(self) -> dict[str, object]:
        """JSON-ready rendering of the span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
        }


class ActiveSpan:
    """Context manager for one in-flight span (returned by ``Tracer.span``)."""

    __slots__ = ("_tracer", "_clock", "_token", "name", "trace_id", "span_id",
                 "parent_id", "start", "attributes")

    def __init__(self, tracer: "Tracer", name: str, clock: Clock,
                 attributes: dict[str, object]) -> None:
        self._tracer = tracer
        self._clock = clock
        self._token = None
        self.name = name
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: int | None = None
        self.start = 0.0
        self.attributes = attributes

    def set(self, key: str, value: object) -> "ActiveSpan":
        """Attach an attribute to the span; returns self for chaining."""
        self.attributes[key] = value
        return self

    def open(self) -> "ActiveSpan":
        """Start the span without making it current; :meth:`close` ends it.

        For a stretch of work that ends in a callback rather than at the
        end of a ``with`` block. Its parent is the span current here.
        """
        parent = _CURRENT.get()
        self.span_id = self._tracer._next_id()
        if parent is None:
            self.trace_id, self.parent_id = self.span_id, None
        else:
            self.trace_id, self.parent_id = parent[0], parent[1]
        self.start = self._clock()
        return self

    def run(self, step: Callable[..., _T], *args: object) -> _T:
        """Call ``step(*args)`` with this opened span current, then make the
        span current before it current again.

        For work that is suspended between steps (a generator process):
        the span is current only while one of its steps runs, so work that
        starts while it is suspended is not its child.
        """
        token = _CURRENT.set((self.trace_id, self.span_id))
        try:
            return step(*args)
        finally:
            _CURRENT.reset(token)

    def close(self, error: str | None = None) -> None:
        """Finish the span, naming the exception type that ended it, if any."""
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self.start,
                end=self._clock(),
                attributes=self.attributes,
                error=error,
            )
        )

    def __enter__(self) -> "ActiveSpan":
        self.open()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        self.close(type(exc).__name__ if exc is not None else None)
        return False


class Tracer:
    """Collects finished spans and aggregates their durations.

    Args:
        clock: default timestamp source (``time.perf_counter``).
        registry: the :class:`~repro.obs.registry.MetricsRegistry` whose
            ``span_duration_seconds{span=...}`` histograms receive every
            finished span (a private one when omitted); :meth:`summary`
            aggregates from them.
        max_spans: retention cap on individual span records; durations
            keep aggregating past the cap, but the per-span list stops
            growing (bounded memory on long runs).
    """

    def __init__(self, clock: Clock = time.perf_counter,
                 registry: MetricsRegistry | None = None, max_spans: int = 10_000) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_spans = max_spans
        self.dropped = 0
        self.finished: list[SpanRecord] = []
        self._span_names: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def span(self, name: str, clock: Clock | None = None, **attributes: object) -> ActiveSpan:
        """Open a span; use as ``with tracer.span("protocol.payment"):``."""
        return ActiveSpan(self, name, clock if clock is not None else self.clock, attributes)

    def _next_id(self) -> int:
        return next(self._ids)

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self.finished) < self.max_spans:
                self.finished.append(record)
            else:
                self.dropped += 1
            self._span_names.add(record.name)
        self.registry.histogram("span_duration_seconds", span=record.name).observe(
            record.duration
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def children_of(self, span_id: int) -> list[SpanRecord]:
        """Finished direct children of the given span."""
        with self._lock:
            return [record for record in self.finished if record.parent_id == span_id]

    def summary(self) -> dict[str, object]:
        """JSON-ready digest: per-name counts and duration aggregates.

        ``by_name`` covers every finished span, retained or dropped.
        """
        with self._lock:
            span_names = sorted(self._span_names)
        names: dict[str, dict[str, float]] = {}
        for name in span_names:
            digest = self.registry.histogram("span_duration_seconds", span=name).summary()
            names[name] = {
                "count": digest["count"],
                "total": digest["sum"],
                "mean": digest["mean"],
                "min": digest["min"],
                "max": digest["max"],
                "p95": digest["p95"],
            }
        return {"span_count": len(self.finished), "dropped": self.dropped, "by_name": names}

    def reset(self) -> None:
        """Forget every finished span, and every metric of the registry."""
        with self._lock:
            self.finished.clear()
            self.dropped = 0
            self._span_names.clear()
        self.registry.reset()


__all__ = ["ActiveSpan", "SpanRecord", "Tracer"]
