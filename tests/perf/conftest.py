"""Perf-suite fixtures: every test starts from a cold perf engine."""

from __future__ import annotations

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def cold_perf_engine():
    """Reset tables/caches around each test so state never leaks."""
    perf.reset()
    yield
    perf.reset()

