"""repro.obs — metrics, tracing and protocol telemetry.

The subsystem has three parts:

* :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges
  and streaming histograms (p50/p90/p95/p99: exact below 128 samples,
  P² above, so a long stream stores no samples);
* :class:`~repro.obs.tracer.Tracer` — nested protocol spans (withdrawal →
  payment → witness-sign → deposit) on a wall or simulated clock;
* :mod:`~repro.obs.export` — JSON / Prometheus / console renderings.

This module is the *facade* the rest of the codebase talks to. A single
process-wide registry + tracer pair sits behind module-level helpers
(:func:`counter_inc`, :func:`observe`, :func:`span`, ...) that check one
``enabled`` flag first — with telemetry off (the default), every
instrumentation site costs one function call and one attribute test, so
hot paths stay unmeasurably close to uninstrumented speed. Enable with
:func:`enable` (or the :func:`enabled` context manager), read back with
:func:`snapshot` / :func:`export_console`.

The facade deliberately imports nothing from ``repro.core``/``repro.net``
— every layer may depend on ``repro.obs``, never the reverse.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.obs.export import combined_snapshot, render_console, to_json, to_prometheus
from repro.obs.histogram import StreamingHistogram
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.tracer import ActiveSpan, SpanRecord, Tracer

_registry = MetricsRegistry()
_tracer = Tracer(registry=_registry)
_enabled = False


class _NullSpan:
    """The span returned while telemetry is disabled: does nothing."""

    __slots__ = ()

    def set(self, key: str, value: object) -> "_NullSpan":
        """Ignore the attribute; returns self for chaining."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Switching and access
# ----------------------------------------------------------------------

def enable() -> None:
    """Turn telemetry collection on (globally, this process)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn telemetry collection off; recorded data is kept until reset."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether instrumentation sites currently record anything."""
    return _enabled


@contextlib.contextmanager
def enabled() -> Iterator[None]:
    """Enable telemetry for a ``with`` block, restoring the prior state."""
    global _enabled
    previous = _enabled
    _enabled = True
    try:
        yield
    finally:
        _enabled = previous


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def reset() -> None:
    """Clear every recorded metric and span (the enabled flag is kept)."""
    _tracer.reset()  # and the registry its span durations land in


# ----------------------------------------------------------------------
# Instrumentation-site helpers (no-ops while disabled)
# ----------------------------------------------------------------------

def counter_inc(name: str, amount: float = 1.0, **labels: object) -> None:
    """Add to a counter if telemetry is enabled."""
    if not _enabled:
        return
    _registry.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, **labels: object) -> None:
    """Set a gauge if telemetry is enabled."""
    if not _enabled:
        return
    _registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram sample if telemetry is enabled."""
    if not _enabled:
        return
    _registry.histogram(name, **labels).observe(value)


def span(name: str, clock: Callable[[], float] | None = None, **attributes: object):
    """Open a traced span (a shared no-op object while disabled).

    Args:
        name: span name, e.g. ``protocol.payment``.
        clock: timestamp source overriding the tracer default — the
            networked layer passes the simulator clock here.
        attributes: initial span attributes.
    """
    if not _enabled:
        return _NULL_SPAN
    return _tracer.span(name, clock=clock, **attributes)


# ----------------------------------------------------------------------
# Reading results
# ----------------------------------------------------------------------

def snapshot() -> dict:
    """The combined metrics + spans dump of the process-wide collectors."""
    return combined_snapshot(_registry, _tracer)


def export_json(indent: int = 2) -> str:
    """JSON rendering of the process-wide snapshot."""
    return to_json(_registry, _tracer, indent=indent)


def export_prometheus() -> str:
    """Prometheus text-format rendering of the process-wide registry."""
    return to_prometheus(_registry)


def export_console() -> str:
    """Human-readable rendering of the process-wide snapshot."""
    return render_console(_registry, _tracer)


__all__ = [
    "ActiveSpan",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SpanRecord",
    "StreamingHistogram",
    "Tracer",
    "combined_snapshot",
    "counter_inc",
    "disable",
    "enable",
    "enabled",
    "export_console",
    "export_json",
    "export_prometheus",
    "gauge_set",
    "is_enabled",
    "observe",
    "registry",
    "render_console",
    "reset",
    "snapshot",
    "span",
    "to_json",
    "to_prometheus",
    "tracer",
]
