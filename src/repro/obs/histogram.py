"""Streaming histograms: one quantile estimator for every sample stream.

Exact below :data:`EXACT_LIMIT` samples, P² above. While a stream is
short the histogram keeps its samples and answers each tracked quantile
by nearest rank (``ordered[ceil(q·n) − 1]``). The sample past the limit
replays the kept samples, in arrival order, into one P² estimator per
quantile (Jain & Chlamtac, CACM 1985: five markers nudged by
piecewise-parabolic interpolation) and drops them, so a long stream
costs O(1) memory and O(1) time per observation.

Exact ``count``/``sum``/``min``/``max`` are tracked alongside, so means
are exact even where quantiles are estimates.
"""

from __future__ import annotations

import bisect
import math
import threading

#: The quantiles every histogram tracks; ``summary()`` names them p50/p90/p95/p99.
QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: Streams of at most this many samples get exact quantiles. P² starts its
#: middle marker at the median of the first five samples, so on a few dozen
#: samples its tail markers have barely moved and p90 can equal p99; 128
#: floats per histogram is cheap. It must stay below 183, the length of the
#: 48-node campaign's digested hop and live-fraction streams, whose pinned
#: digest is made of P² estimates.
EXACT_LIMIT = 128


class _P2:
    """The P² single-quantile estimator (Jain & Chlamtac, 1985).

    Five markers track the minimum, the target quantile, the maximum and
    two intermediates; marker heights are nudged by piecewise-parabolic
    (falling back to linear) interpolation as desired positions drift.
    """

    def __init__(self, q: float) -> None:
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        """Absorb one observation in O(1)."""
        if not self._heights:
            bisect.insort(self._initial, value)
            if len(self._initial) == 5:
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                    3.0 + 2.0 * self.q,
                    5.0,
                ]
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]
        for index in (1, 2, 3):
            drift = self._desired[index] - positions[index]
            step_up = positions[index + 1] - positions[index]
            step_down = positions[index - 1] - positions[index]
            if (drift >= 1.0 and step_up > 1.0) or (drift <= -1.0 and step_down < -1.0):
                sign = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(index, sign)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, sign)
                positions[index] += sign

    def _parabolic(self, index: int, sign: float) -> float:
        heights, positions = self._heights, self._positions
        span = positions[index + 1] - positions[index - 1]
        upper = (positions[index] - positions[index - 1] + sign) * (
            heights[index + 1] - heights[index]
        ) / (positions[index + 1] - positions[index])
        lower = (positions[index + 1] - positions[index] - sign) * (
            heights[index] - heights[index - 1]
        ) / (positions[index] - positions[index - 1])
        return heights[index] + sign / span * (upper + lower)

    def _linear(self, index: int, sign: float) -> float:
        heights, positions = self._heights, self._positions
        step = int(sign)
        return heights[index] + sign * (heights[index + step] - heights[index]) / (
            positions[index + step] - positions[index]
        )

    def value(self) -> float:
        """The current estimate (the middle marker; needs five observations)."""
        return self._heights[2]


class StreamingHistogram:
    """A histogram with exact short-stream and P² long-stream quantiles.

    Thread-safe: every mutation happens under an internal lock. Zero and
    negative observations are legal.
    """

    __slots__ = ("_lock", "_samples", "_markers", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: list[float] | None = []
        self._markers: list[_P2] = []
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            if self._samples is None:
                for marker in self._markers:
                    marker.add(value)
                return
            self._samples.append(value)
            if len(self._samples) > EXACT_LIMIT:
                self._markers = [_P2(q) for q in QUANTILES]
                for marker in self._markers:
                    for sample in self._samples:
                        marker.add(sample)
                self._samples = None

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile for ``q`` in :data:`QUANTILES` (0.0 when empty).

        Raises:
            ValueError: ``q`` is not a tracked quantile.
        """
        if q not in QUANTILES:
            raise ValueError(f"quantile must be one of {QUANTILES}")
        return self._estimates()[QUANTILES.index(q)]

    def _estimates(self) -> list[float]:
        with self._lock:
            if self._samples is None:
                return [marker.value() for marker in self._markers]
            ordered = sorted(self._samples)
        if not ordered:
            return [0.0] * len(QUANTILES)
        return [ordered[math.ceil(q * len(ordered) - 1e-9) - 1] for q in QUANTILES]

    def summary(self) -> dict[str, float]:
        """A plain-dict digest: count, sum, mean, min, max, p50, p90, p95, p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        digest: dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        for q, estimate in zip(QUANTILES, self._estimates()):
            digest[f"p{q * 100:g}"] = estimate
        return digest


__all__ = ["EXACT_LIMIT", "QUANTILES", "StreamingHistogram"]
