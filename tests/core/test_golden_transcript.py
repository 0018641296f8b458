"""Golden-transcript test: protocol bytes are backend-invariant.

A fully deterministic (seeded) withdrawal + payment lifecycle is run and
its wire serialization hashed. The digest below was recorded under the
pure-python backend; the last test here holds both digests under every
backend this machine has (``each_backend``), whatever ``REPRO_BACKEND``
the suite itself runs under, so any arithmetic divergence between the
backends — or any perf-engine shortcut that changes a protocol value,
from a cold engine or from warm memos and built tables — shows up here
as a digest mismatch, not as a subtle interop break later.

A second digest pins the same lifecycle's ``deposit`` request bodies as
the wire codec encodes them (recorded with the multi-pass codec that
shipped through PR 15): key order, abbreviations, percent-encoding and
integer text are all inside it, so a codec that moves one byte fails
here under every backend.
"""

import hashlib
import json

import pytest

from repro import perf
from repro.core.params import test_params as make_test_params
from repro.core.protocols import run_payment, run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto.serialize import encode
from tests.crypto import reference_codec


GOLDEN_SHA256 = "96c8cd47fb63cf416e792eaf143d2a784b7b7467cb87ae6d7cb88419f39aff40"
GOLDEN_BODIES_SHA256 = "4851e71bd6e6fc14051f9001035ff892ab6b34103b8bd7b399dad734888e7be5"


def _lifecycle() -> list[tuple[str, dict[str, object]]]:
    """``(storefront, signed transcript wire mapping)`` for three seeded payments."""
    system = EcashSystem(
        merchant_ids=("gold-shop", "gold-witness-a", "gold-witness-b"),
        params=make_test_params(),
        seed=20070625,
    )
    client = system.new_client()
    now = 10
    spent = []
    for _ in range(3):
        stored = run_withdrawal(client, system.broker, system.standard_info(100, now))
        merchant_id = next(
            mid for mid in system.nodes if mid != stored.coin.witness_id
        )
        signed = run_payment(
            client,
            stored,
            system.merchant(merchant_id),
            system.witness_of(stored),
            now,
        )
        spent.append((merchant_id, signed.to_wire()))
    return spent


def _lifecycle_digest() -> str:
    wires = [wire for _, wire in _lifecycle()]
    payload = json.dumps(wires, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _bodies_digest(codec) -> str:
    bodies = [
        codec({"merchant_id": merchant_id, "signed": wire}) for merchant_id, wire in _lifecycle()
    ]
    return hashlib.sha256("\n".join(bodies).encode("ascii")).hexdigest()


@pytest.mark.parametrize("warm", [False, True])
def test_lifecycle_bytes_match_golden_digest(warm):
    """From a cold engine, and again over the memos and tables a first
    run of the same seeded lifecycle leaves behind."""
    perf.reset()
    if warm:
        _lifecycle_digest()
    assert _lifecycle_digest() == GOLDEN_SHA256


@pytest.mark.parametrize("codec", [encode, reference_codec.encode], ids=["live", "reference"])
def test_encoded_bodies_match_golden_digest(codec):
    assert _bodies_digest(codec) == GOLDEN_BODIES_SHA256


@pytest.mark.usefixtures("each_backend")
def test_both_digests_hold_under_every_available_backend():
    perf.reset()
    assert _lifecycle_digest() == GOLDEN_SHA256  # cold engine
    assert _lifecycle_digest() == GOLDEN_SHA256  # same seed again: warm
    assert _bodies_digest(encode) == GOLDEN_BODIES_SHA256
