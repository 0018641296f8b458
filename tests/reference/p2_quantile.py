"""The P² estimator the campaign ran before the histogram took it over, kept as a test oracle.

``P2Quantile`` below is the class ``repro.scale.stats`` held, verbatim:
the single-quantile estimator of Jain & Chlamtac (CACM 1985) that fed
the campaign's p50/p90/p99 until ``repro.obs.histogram`` absorbed it.

Nothing under ``src/`` imports this module, and it imports nothing from
``repro``; ``tests/obs/test_histogram.py`` holds the histogram's
long-stream quantiles to it with ``==``.
"""

from __future__ import annotations

import bisect


class P2Quantile:
    """The P² single-quantile estimator (Jain & Chlamtac, 1985).

    Five markers track the minimum, the target quantile, the maximum and
    two intermediates; marker heights are nudged by piecewise-parabolic
    (falling back to linear) interpolation as desired positions drift.
    Until five observations arrive the estimate is exact (sorted buffer).

    Args:
        q: the quantile in (0, 1), e.g. ``0.99``.
    """

    def __init__(self, q: float) -> None:
        if not 0 < q < 1:
            raise ValueError("quantile must be strictly inside (0, 1)")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return len(self._initial) if not self._heights else int(self._positions[4])

    def add(self, value: float) -> None:
        """Absorb one observation in O(1)."""
        value = float(value)
        if not self._heights:
            bisect.insort(self._initial, value)
            if len(self._initial) == 5:
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                ]
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
        """The current quantile estimate (0 if no observations)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        rank = min(len(self._initial) - 1, int(self.q * len(self._initial)))
        return self._initial[rank]
