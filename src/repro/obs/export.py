"""Exporters: JSON, Prometheus text format, and a console summary.

All three consume the same inputs — a :class:`MetricsRegistry` and
(optionally) a :class:`Tracer` — so a run can be dumped machine-readably
(``to_json``), scraped (``to_prometheus``) or eyeballed
(``render_console``) without re-instrumenting anything.
"""

from __future__ import annotations

import json
import re

from repro.obs.histogram import QUANTILES
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def combined_snapshot(registry: MetricsRegistry, tracer: Tracer | None = None) -> dict:
    """The canonical dump: metrics plus (when given) the span digest."""
    snapshot: dict[str, object] = {"metrics": registry.snapshot()}
    if tracer is not None:
        snapshot["spans"] = tracer.summary()
    return snapshot


def to_json(registry: MetricsRegistry, tracer: Tracer | None = None, indent: int = 2) -> str:
    """Serialize the combined snapshot as a JSON document."""
    return json.dumps(combined_snapshot(registry, tracer), indent=indent, sort_keys=True)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms become
    summary-style quantile series plus ``_sum``/``_count``.
    """
    snapshot = registry.snapshot()
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        # One TYPE line per metric name: labelled series share it, and
        # strict parsers reject duplicates.
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot["counters"].items():
        name, labels = _split_key(key)
        declare(name, "counter")
        lines.append(f"{name}{labels} {_fmt(value)}")
    for key, value in snapshot["gauges"].items():
        name, labels = _split_key(key)
        declare(name, "gauge")
        lines.append(f"{name}{labels} {_fmt(value)}")
    for key, digest in snapshot["histograms"].items():
        name, labels = _split_key(key)
        declare(name, "summary")
        for q in QUANTILES:
            field = f"p{q * 100:g}"
            if field in digest:
                extra = f'quantile="{q:g}"'
                lines.append(f"{name}{_merge_labels(labels, extra)} {_fmt(digest[field])}")
        lines.append(f"{name}_sum{labels} {_fmt(digest.get('sum', 0.0))}")
        lines.append(f"{name}_count{labels} {_fmt(digest.get('count', 0))}")
    return "\n".join(lines) + "\n"


def render_console(registry: MetricsRegistry, tracer: Tracer | None = None) -> str:
    """A human-readable multi-section summary of one run."""
    snapshot = registry.snapshot()
    out: list[str] = ["== Observability snapshot =="]
    if tracer is not None:
        digest = tracer.summary()
        out.append("")
        out.append(f"-- Spans ({digest['span_count']} recorded) --")
        for name, stats in digest["by_name"].items():  # type: ignore[union-attr]
            out.append(
                f"  {name:<28} n={stats['count']:<5.0f} "
                f"mean={_duration(stats['mean'])} p95={_duration(stats['p95'])} "
                f"max={_duration(stats['max'])}"
            )
    out.append("")
    out.append("-- Counters --")
    for key, value in snapshot["counters"].items():
        out.append(f"  {key:<44} {value:g}")
    if snapshot["gauges"]:
        out.append("")
        out.append("-- Gauges --")
        for key, value in snapshot["gauges"].items():
            out.append(f"  {key:<44} {value:g}")
    out.append("")
    out.append("-- Histograms --")
    for key, digest in snapshot["histograms"].items():
        if digest["count"] == 0:
            out.append(f"  {key:<44} (empty)")
            continue
        out.append(
            f"  {key:<44} n={digest['count']:<6.0f} mean={digest['mean']:.3g} "
            f"p50={digest['p50']:.3g} p90={digest['p90']:.3g} p95={digest['p95']:.3g} "
            f"p99={digest['p99']:.3g} max={digest['max']:.3g}"
        )
    return "\n".join(out)


def _split_key(key: str) -> tuple[str, str]:
    """Split ``name{k=v,...}`` into a sanitized name and Prometheus labels."""
    match = _KEY_RE.match(key)
    assert match is not None  # keys are produced by label_key()
    name = _NAME_RE.sub("_", match.group("name"))
    raw = match.group("labels")
    if not raw:
        return name, ""
    pairs = []
    for item in raw.split(","):
        label, _, value = item.partition("=")
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        pairs.append(f'{_NAME_RE.sub("_", label)}="{escaped}"')
    return name, "{" + ",".join(pairs) + "}"


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def _fmt(value: float) -> str:
    return f"{value:g}"


def _duration(seconds: float) -> str:
    """Render a duration with an adaptive unit."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


__all__ = ["combined_snapshot", "render_console", "to_json", "to_prometheus"]
