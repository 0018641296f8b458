"""Small statistics helpers for the benchmark harnesses.

Standard-library only; the benchmarks report the same aggregates the paper
does (mean and standard deviation over trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.

    Raises:
        ValueError: on an empty sequence.
    """
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator), 0.0 for n < 2."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class Summary:
    """Mean/stdev/min/max/n over one metric."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        """Summarize a non-empty sequence.

        Raises:
            ValueError: on empty input.
        """
        if not values:
            raise ValueError("cannot summarize an empty sequence")
        return cls(
            n=len(values),
            mean=mean(values),
            stdev=stdev(values),
            minimum=min(values),
            maximum=max(values),
        )

    def format_ms(self) -> str:
        """Render as the paper's Table 2 style, in milliseconds."""
        return f"avg {self.mean:.0f}ms, st.dev {self.stdev:.0f}ms (n={self.n})"


__all__ = ["mean", "stdev", "Summary"]
