"""Tests for the pluggable bigint backend."""

import random

import pytest

from repro import perf
from repro.core.params import test_params as make_test_params
from repro.crypto import backend

REQUESTABLE = [*backend.available(), "auto"]

#: The removed GMP-limb backend's name, spelled in two pieces so that a
#: search for it finds only code that still uses it.
REMOVED = "gmp" "y2"


@pytest.fixture(autouse=True)
def restore_backend():
    """Leave the process on the backend it entered with."""
    active = backend.name()
    yield
    backend.set_backend(active)


def test_python_backend_always_available():
    assert backend.BACKEND_PYTHON in backend.available()
    assert backend.name() in backend.available()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown bigint backend"):
        backend.set_backend("fpga")


def test_set_backend_returns_active_name():
    assert backend.set_backend("python") == backend.BACKEND_PYTHON
    assert backend.name() == backend.BACKEND_PYTHON


def test_auto_resolves_to_gmp_when_libgmp_passes_its_self_test():
    if backend._libgmp() is None:
        assert backend.available() == (backend.BACKEND_PYTHON,)
        assert backend.set_backend("auto") == backend.BACKEND_PYTHON
    else:
        assert backend.available() == (backend.BACKEND_GMP, backend.BACKEND_PYTHON)
        assert backend.set_backend("auto") == backend.BACKEND_GMP


@pytest.mark.parametrize("strict", [True, False])
def test_the_removed_backend_is_an_unknown_name(strict):
    with pytest.raises(ValueError, match=f"unknown bigint backend '{REMOVED}'"):
        backend.set_backend(REMOVED, strict=strict)


def test_env_init_survives_bogus_value(monkeypatch):
    """An unknown ``REPRO_BACKEND`` value selects python, never fails the import."""
    for value in ("definitely-not-a-backend", REMOVED):
        backend.set_backend("auto")
        monkeypatch.setenv("REPRO_BACKEND", value)
        backend._init_from_env()
        assert backend.name() == backend.BACKEND_PYTHON


def test_gmp_version_matches_active_backend():
    for requested in backend.available():
        backend.set_backend(requested)
        version = backend.gmp_version()
        if requested == backend.BACKEND_PYTHON:
            assert version is None
        else:
            assert isinstance(version, str) and version[0].isdigit()


def test_every_backend_builds_a_table():
    for requested in backend.available():
        backend.set_backend(requested)
        table = backend.FixedBaseTable(5, 2879, 1439)
        assert table.pow(1000) == pow(5, 1000, 2879)


@pytest.mark.parametrize("requested", REQUESTABLE)
def test_powmod_matches_builtin_pow(requested):
    backend.set_backend(requested, strict=False)
    rng = random.Random(2007)
    modulus = 0xFFFFFFFFFFFFFFC5  # a 64-bit prime
    for _ in range(50):
        base = rng.randrange(1, modulus)
        exponent = rng.randrange(0, modulus)
        assert backend.powmod(base, exponent, modulus) == pow(base, exponent, modulus)


@pytest.mark.parametrize("requested", REQUESTABLE)
def test_invert_matches_builtin_pow(requested):
    backend.set_backend(requested, strict=False)
    rng = random.Random(2008)
    modulus = 0xFFFFFFFFFFFFFFC5
    for _ in range(50):
        value = rng.randrange(1, modulus)
        inverse = backend.invert(value, modulus)
        assert (value * inverse) % modulus == 1
        assert inverse == pow(value, -1, modulus)


@pytest.mark.parametrize("requested", REQUESTABLE)
def test_invert_error_contract(requested):
    backend.set_backend(requested, strict=False)
    with pytest.raises(ZeroDivisionError):
        backend.invert(0, 97)
    with pytest.raises(ZeroDivisionError):
        backend.invert(6, 9)


def test_on_change_fires_only_on_real_switch():
    fired: list[str] = []
    listener = fired.append
    backend.on_change(listener)
    try:
        backend.set_backend(backend.name())
        assert fired == []
        others = [b for b in backend.available() if b != backend.name()]
        if others:
            backend.set_backend(others[0])
            assert fired == [others[0]]
    finally:
        backend._listeners.remove(listener)


def test_variable_base_exp_and_hash_to_group_reach_the_backend(monkeypatch):
    """The NIZK's ``B^d`` and ``F``'s cofactor power are the backend's to compute."""
    params = make_test_params()
    group = params.group
    calls: list[tuple[int, int, int]] = []
    active = backend.powmod

    def spy(base, exponent, modulus):
        calls.append((base, exponent, modulus))
        return active(base, exponent, modulus)

    monkeypatch.setattr(backend, "powmod", spy)
    perf.reset()
    coin_specific = pow(group.g1, 0xC0FFEE, group.p)
    assert perf.fpow(coin_specific, 12345, group.p, group.q) == pow(coin_specific, 12345, group.p)
    assert calls == [(coin_specific, 12345, group.p)]

    del calls[:]
    element = params.hashes.F("a cold info", 25)
    assert [(e, m) for _, e, m in calls] == [((group.p - 1) // group.q, group.p)]
    assert pow(element, group.q, group.p) == 1
    perf.reset()
