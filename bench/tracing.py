"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``(name, start, end, parent, trace id)``; spans of one coin's
journey share a trace id (the coin-hash prefix). They are kept in memory
and written out once, at exit. A span's *self time* is its duration minus
the part of that interval its child spans cover — children of one parent
may overlap (concurrent RPCs), so coverage is the union of their
intervals, not the sum. Spans inside ``src/`` are a later change; these
are recorded from the benchmark's own files only.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    """One timed interval; ``parent`` is a span id or ``None`` for a root."""

    id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start


class Tracer:
    """Records spans; the current span is tracked per asyncio task."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "bench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[Span]:
        """Time the enclosed block as a child of the task's current span."""
        parent = self._current.get()
        span = Span(
            id=len(self.spans),
            name=name,
            trace=trace if trace is not None else (parent.trace if parent else ""),
            parent=parent.id if parent is not None else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (called once, when the run ends).

        A root learns its coin hash only when the withdrawal finishes, so
        descendants take their root's trace id here (ids ascend with time).
        """
        for span in self.spans:
            if span.parent is not None:
                span.trace = self.spans[span.parent].trace
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = span.duration - covered
    return out
