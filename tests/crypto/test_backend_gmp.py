"""The ctypes ``gmp`` backend against builtin ``pow``.

Same function, same failures: every in-domain result is the plain ``int``
builtin ``pow`` returns, every out-of-domain call raises what builtin
``pow`` raises — from Python, not as a SIGFPE inside ``mpz_powm`` — and a
host whose libgmp is missing, stripped or wrong gets a working python
backend. The Hypothesis property runs 2,000 examples under the ``ci``
profile (tests/conftest.py).
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import backend

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.usefixtures("gmp_backend")


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the exception is the result compared
        return type(error), str(error)


def _up_to_bits(limit: int) -> st.SearchStrategy[int]:
    """Integers whose *bit length* is spread over ``[0, limit]``."""
    return st.integers(0, limit).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


_LIMB_EDGES = [0, 1, 2, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 128) - 1, 1 << 2047]
_operand = st.one_of(st.sampled_from(_LIMB_EDGES), _up_to_bits(2048))
_modulus = st.one_of(st.sampled_from(_LIMB_EDGES[1:]), _up_to_bits(2048).map(lambda m: m + 1))


@given(base=_operand, exponent=_operand, modulus=_modulus)
def test_powmod_is_builtin_pow(base, exponent, modulus):
    """1–2048-bit operands: ``base >= modulus``, zero base or exponent,
    modulus 1 and even moduli all come up among the drawn and edge values."""
    result = backend.powmod(base, exponent, modulus)
    assert type(result) is int
    assert result == pow(base, exponent, modulus)


@pytest.mark.parametrize(
    "base, exponent, modulus",
    [
        (0, 0, 1),
        (0, 0, 7),
        (0, 5, 7),
        (5, 0, 7),
        (7, 3, 7),
        (1 << 200, 3, 7),
        (3, 1 << 70, 1 << 64),
        ((1 << 64) + 3, 5, 1 << 64),
    ],
)
def test_in_domain_edge_cases(base, exponent, modulus):
    assert backend.powmod(base, exponent, modulus) == pow(base, exponent, modulus)


@pytest.mark.parametrize(
    "base, exponent, modulus",
    [
        (2, 3, 0),  # mpz_powm: division by zero, SIGFPE
        (2, 3, -5),
        (2, -1, 5),  # inverse exists
        (2, -1, 4),  # no inverse: mpz_powm aborts
        (0, -1, 5),
        (-2, 3, 5),
        (-2, -3, 0),
    ],
)
def test_out_of_domain_inputs_raise_what_builtin_pow_raises(base, exponent, modulus):
    assert _outcome(backend.powmod, base, exponent, modulus) == _outcome(
        pow, base, exponent, modulus
    )


def _mixed_cases(count: int) -> list[tuple[int, int, int]]:
    """Deterministic ``(base, exponent, modulus)`` over 1024-/512-/160-bit moduli."""
    moduli = [(1 << 1023) + 1155, (1 << 511) + 111, (1 << 159) + 49, (1 << 1024) - 105]
    cases = []
    for index in range(count):
        modulus = moduli[index % len(moduli)]
        base = pow(3, 1000 + index, modulus)
        exponent = pow(5, 77 + index, (1 << 160) - 47)
        cases.append((base, exponent, modulus))
    return cases


def test_four_threads_of_mixed_modulus_calls_all_agree_with_builtin_pow():
    cases = _mixed_cases(40)
    expected = [pow(*case) for case in cases]
    wrong: list[tuple[int, int]] = []

    def worker(offset: int) -> None:
        for call in range(2000):
            index = (offset * 7 + call * (offset + 1)) % len(cases)
            if backend.powmod(*cases[index]) != expected[index]:
                wrong.append((offset, index))

    # More workers than this container has cores, and a switch interval
    # short enough that a thread is regularly preempted between its
    # mpz_import and its mpz_powm.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_modulus_cache_hits_alternates_and_recycles_slots():
    # Alternating sizes: every call after the first four is a cache hit on
    # a different slot (and a different export buffer) than the last.
    for case in _mixed_cases(24):
        assert backend.powmod(*case) == pow(*case)
    # More distinct moduli than slots, sizes growing and shrinking: each
    # recycled mpz is re-imported in place with a right-sized buffer.
    moduli = [(1 << (40 * (k % 7) + 20)) + 2 * k + 1 for k in range(3 * backend._MODULUS_SLOTS)]
    for _ in range(2):
        for modulus in moduli:
            assert backend.powmod(modulus + 2, 65537, modulus) == pow(modulus + 2, 65537, modulus)


def test_forcing_the_python_backend_loads_no_foreign_library():
    probe = (
        "import sys; from repro.crypto import backend; "
        "print(backend.name(), 'ctypes' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC), "REPRO_BACKEND": "python"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout.split()) == (0, ["python", "False"]), result.stderr


# ----------------------------------------------------------------------
# A host without a usable libgmp
# ----------------------------------------------------------------------
_BROKEN_HOST = """
import ctypes, ctypes.util, json, sys

mode = sys.argv[1]
real_cdll = ctypes.CDLL


class Doctored:
    '''libgmp with ``__gmpz_powm`` missing, or present and computing nothing.'''

    def __init__(self, name):
        self._lib = real_cdll(name)

    def __getattr__(self, symbol):
        if symbol == "__gmpz_powm":
            if mode == "stripped":
                raise AttributeError(symbol)
            return lambda *operands: None
        return getattr(self._lib, symbol)


def missing(name):
    raise OSError(f"{name}: cannot open shared object file")


ctypes.CDLL = missing if mode == "missing" else Doctored
ctypes.util.find_library = lambda name: None

from repro.core.params import test_params
from repro.core.protocols import run_deposit, run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto import backend

try:
    backend.set_backend("gmp", strict=True)
    strict = "activated"
except RuntimeError as error:
    strict = str(error)
system = EcashSystem(merchant_ids=("witness", "shop"), params=test_params(),
                     seed=17, weights={"witness": 1.0})
client = system.new_client()
stored = run_withdrawal(client, system.broker, system.standard_info(25, 0))
run_payment(client, stored, system.merchant("shop"), system.witness("witness"), 0)
results = run_deposit(system.merchant("shop"), system.broker, 0)
print(json.dumps({
    "name": backend.name(),
    "available": backend.available(),
    "lenient": backend.set_backend("gmp", strict=False),
    "strict": strict,
    "version": backend.gmp_version(),
    "credited": [result.amount for result in results],
}))
"""


@pytest.mark.parametrize("mode", ["missing", "stripped", "wrong"])
def test_unusable_libgmp_leaves_a_working_python_backend(mode):
    result = subprocess.run(
        [sys.executable, "-c", _BROKEN_HOST, mode],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "name": "python",
        "available": ["python"],
        "lenient": "python",
        "strict": "gmp backend requested but libgmp did not load or failed its self-test",
        "version": None,
        "credited": [25],
    }
