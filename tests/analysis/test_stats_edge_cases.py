"""Edge cases for the statistics helpers: empty, singleton, unsorted input."""

from __future__ import annotations

import pytest

from repro.analysis.stats import Summary, mean, stdev


def test_mean_empty_raises():
    with pytest.raises(ValueError):
        mean([])


def test_mean_single_element():
    assert mean([7.0]) == 7.0


def test_stdev_empty_and_single_are_zero():
    assert stdev([]) == 0.0
    assert stdev([5.0]) == 0.0


def test_stdev_two_elements():
    # Sample stdev of (1, 3): sqrt(((1-2)^2 + (3-2)^2) / 1) = sqrt(2).
    assert stdev([1.0, 3.0]) == pytest.approx(2 ** 0.5)


def test_stdev_order_independent():
    assert stdev([3.0, 1.0, 2.0]) == pytest.approx(stdev([1.0, 2.0, 3.0]))


def test_summary_empty_raises():
    with pytest.raises(ValueError):
        Summary.of([])


def test_summary_single_element():
    summary = Summary.of([3.0])
    assert summary.n == 1
    assert summary.mean == 3.0
    assert summary.stdev == 0.0
    assert summary.minimum == summary.maximum == 3.0


def test_summary_unsorted_input():
    summary = Summary.of([4.0, 1.0, 3.0])
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.mean == pytest.approx(8.0 / 3)


def test_summary_format_ms():
    text = Summary.of([100.0, 100.0]).format_ms()
    assert text == "avg 100ms, st.dev 0ms (n=2)"
