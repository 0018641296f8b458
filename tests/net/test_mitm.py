"""Man-in-the-middle tests: a network adversary gains nothing.

The paper's security analysis assumes authenticated-but-public channels:
transcripts are "publicly verifiable and should not reveal secrets", and
"seeing a payment transcript does not allow one to generate another
payment transcript". These tests inject an active adversary into the RPC
fabric (tampering, dropping and redirecting in-flight messages) and
verify every manipulation is caught by the protocol's own signatures and
bindings — no TLS needed, exactly as designed.
"""

import pytest

from repro.core.exceptions import EcashError
from repro.core.system import EcashSystem
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from repro.net.sim import SimTimeoutError
from repro.net.transport import Message


@pytest.fixture()
def deployment(params):
    system = EcashSystem(params=params, seed=321)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=321)
    dep.add_client("c")
    return system, dep


def withdraw(system, dep):
    return dep.run(dep.withdrawal_process("c", system.standard_info(25, now=0)))


def merchant_for(system, stored):
    return next(m for m in system.merchant_ids if m != stored.coin.witness_id)


def _tamper_field(payload: dict, dotted: str) -> dict:
    """Return a deep-copied payload with one nested int field bumped."""
    import copy

    out = copy.deepcopy(payload)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = node[parts[-1]] + 1
    return out


def test_tampered_payment_response_rejected(deployment):
    """Flipping r1 in the in-flight payment breaks the NIZK at the merchant."""
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)

    def tamper(source, destination, message: Message):
        if message.method == "pay":
            return Message(
                method="pay", payload=_tamper_field(message.payload, "transcript.r1")
            )
        return message

    dep.network.tamper_hook = tamper
    with pytest.raises(EcashError):
        dep.run(dep.payment_process("c", stored, target))
    # Nothing was accepted anywhere; the coin is still spendable.
    dep.network.tamper_hook = None
    dep.sim.schedule(200.0, lambda: None)
    dep.sim.run()
    receipt = dep.run(dep.payment_process("c", stored, target))
    assert receipt.amount == 25


def test_tampered_coin_denomination_rejected(deployment):
    """Inflating the coin's denomination in flight breaks the broker's
    signature over info."""
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)

    def tamper(source, destination, message: Message):
        if message.method == "pay":
            return Message(
                method="pay",
                payload=_tamper_field(
                    message.payload, "transcript.coin.bare.info.denomination"
                ),
            )
        return message

    dep.network.tamper_hook = tamper
    with pytest.raises(EcashError):
        dep.run(dep.payment_process("c", stored, target))


def test_tampered_witness_commitment_rejected(deployment):
    """Extending a commitment's lifetime in flight breaks its signature.

    The client catches it (CommitmentError) — the commitment reply is the
    one message a MITM could usefully stall-extend."""
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)

    # Tamper the commitment REQUEST's nonce: the witness then signs a
    # commitment for a nonce the client never chose, and the client's
    # commitment check fails.
    def tamper_request(source, destination, message: Message):
        if message.method == "witness/commit":
            return Message(
                method="witness/commit",
                payload=_tamper_field(message.payload, "nonce"),
            )
        return message

    dep.network.tamper_hook = tamper_request
    with pytest.raises(EcashError):
        dep.run(dep.payment_process("c", stored, target))


def test_redirected_deposit_rejected(deployment):
    """An adversary re-labels a deposit as coming from itself; the broker
    rejects it because the transcript names the real merchant."""
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)
    other = next(
        m for m in system.merchant_ids if m not in (target, stored.coin.witness_id)
    )
    dep.run(dep.payment_process("c", stored, target))

    def tamper(source, destination, message: Message):
        if message.method == "deposit":
            payload = dict(message.payload)
            payload["merchant_id"] = other  # claim the money for `other`
            return Message(method="deposit", payload=payload)
        return message

    dep.network.tamper_hook = tamper
    with pytest.raises(EcashError):
        dep.run(dep.deposit_process(target))
    assert system.broker.merchant_balance(other) == 0
    assert system.broker.merchant_balance(target) == 0  # not credited either way
    # With the adversary gone, the genuine deposit clears.
    dep.network.tamper_hook = None
    dep.run(dep.deposit_process(target))
    assert system.broker.merchant_balance(target) == 25


def test_dropped_messages_time_out_cleanly(deployment):
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)
    dep.network.tamper_hook = lambda source, destination, message: (
        None if message.method == "witness/sign" else message
    )
    with pytest.raises(SimTimeoutError):
        dep.run(dep.payment_process("c", stored, target))
    assert system.ledger.conserved()


def test_eavesdropper_cannot_replay_transcript(deployment):
    """A passive adversary that captured a full payment transcript cannot
    cash or respend it: the transcript binds merchant identity, and the
    NIZK cannot be re-bound without the coin secrets."""
    system, dep = deployment
    stored = withdraw(system, dep)
    target = merchant_for(system, stored)
    captured = {}

    def capture(source, destination, message: Message):
        if message.method == "pay":
            captured.update(message.payload)
        return message

    dep.network.tamper_hook = capture
    dep.run(dep.payment_process("c", stored, target))
    dep.network.tamper_hook = None
    assert captured

    from repro.core.transcripts import PaymentTranscript
    from repro.crypto.serialize import decode, encode

    transcript = PaymentTranscript.from_wire(
        {
            key.removeprefix("transcript."): value
            for key, value in decode(encode(captured)).items()
            if key.startswith("transcript.")
        }
    )
    # Replay at another merchant: the challenge changes, the response no
    # longer verifies.
    evil = next(
        m for m in system.merchant_ids if m not in (target, stored.coin.witness_id)
    )
    from dataclasses import replace

    from repro.core.exceptions import InvalidPaymentError
    from repro.core.transcripts import verify_payment_response

    rebound = replace(transcript, merchant_id=evil)
    with pytest.raises(InvalidPaymentError):
        verify_payment_response(system.params, rebound)
