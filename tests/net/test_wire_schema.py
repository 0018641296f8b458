"""The declared wire schema, held to the traffic, the records and the codec.

``registry.WIRE_SCHEMA`` is the only statement of what each protocol
message carries; the dispatch builders refuse requests against it. Here
every registry flow runs over the sim with every request and reply
recorded and checked against the table, every declared method and reply
alternative must show up, each record's ``WIRE_KEYS`` must be what its
``to_wire`` writes, every declared key must survive the codec, and
``docs/PROTOCOLS.md`` must show the table as it is.
"""

from collections.abc import Generator
from pathlib import Path

import pytest

from repro.core.exceptions import (
    DoubleSpendError,
    ProtocolViolationError,
    RenewalRefusedError,
)
from repro.core.protocols import run_payment
from repro.core.system import EcashSystem
from repro.core.transcripts import DoubleSpendProof
from repro.crypto.serialize import abbreviate_key, decode, encode, flatten, unflatten
from repro.net import registry
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from tests.conftest import other_merchant

DOC = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOLS.md"
BEGIN, END = "<!-- wire-schema:begin -->\n", "<!-- wire-schema:end -->\n"


class _Recorder:
    """Every request a sim node serves and every reply it returns."""

    def __init__(self, network):
        self.requests = []
        self.replies = []
        for node in network.nodes.values():
            for method, handler in list(node._handlers.items()):
                node._handlers[method] = self._recording(method, handler)

    def _recording(self, method, handler):
        def recorded(payload):
            self.requests.append((method, flatten(payload)))
            reply = handler(payload)
            if isinstance(reply, Generator):
                reply = yield from reply
            self.replies.append((method, flatten(reply)))
            return reply

        return recorded


def _conforms(shape, flat):
    try:
        return shape.check(flat, "recorded message")
    except ProtocolViolationError:
        return None


@pytest.fixture()
def traffic(params):
    """Every registry flow once over the sim, refusals included."""
    system = EcashSystem(params=params, seed=29)
    dep = NetworkDeployment(system, cost_model=instant_profile(), seed=29)
    client = dep.add_client("client-0")
    recorder = _Recorder(dep.network)

    def run(source, flow):
        return dep.run(dep.run_flow(source, flow))

    def info(cents):
        return system.standard_info(cents, now=dep.now())

    def wait_out_commitments():
        dep.sim.schedule(200.0, lambda: None)
        dep.sim.run()

    tables = system.broker.tables
    coins = [
        run("client-0", registry.withdrawal_flow(client, "broker", tables, info(25)))
        for _ in range(2)
    ]
    coins += run("client-0", registry.batch_withdrawal_flow(client, "broker", tables, [info(5)] * 2))

    # Payment, then the same coin twice more: refused through the
    # storefront's ``pay``, then straight at the witness.
    spent = coins[0]
    first, second = [m for m in system.merchant_ids if m != spent.coin.witness_id][:2]
    run("client-0", registry.payment_flow(
        client, spent, first, system.merchant(first).witness_keys[spent.coin.witness_id], dep.now
    ))
    witness_public = system.merchant(second).witness_keys[spent.coin.witness_id]
    for replay in (registry.payment_flow, registry.direct_spend_flow):
        client.wallet.add(spent)
        wait_out_commitments()
        with pytest.raises(DoubleSpendError):
            run("client-0", replay(client, spent, second, witness_public, dep.now))
    run(first, registry.deposit_flow(system.merchant(first), first, "broker"))

    # Batch deposit, and its retry after a lost reply: ALREADY_CREDITED.
    shop_id = next(
        m for m in system.merchant_ids if m not in {c.coin.witness_id for c in coins[2:]}
    )
    shop = system.merchant(shop_id)
    for stored in coins[2:]:
        witness_key = shop.witness_keys[stored.coin.witness_id]
        run("client-0", registry.payment_flow(client, stored, shop_id, witness_key, dep.now))
    paid = list(shop.pending_deposits())
    assert run(shop_id, registry.batch_deposit_flow(shop, shop_id, "broker")) == [
        {"outcome": "credited", "amount": 5}
    ] * 2
    assert run(shop_id, registry.batch_deposit_flow(shop, shop_id, "broker", paid)) == [
        {"outcome": registry.ALREADY_CREDITED, "amount": 0}
    ] * 2

    # Renewal, and the same coin renewed again.
    renewed = coins[1]
    run("client-0", registry.renewal_flow(client, "broker", tables, renewed, info(25), dep.now))
    client.wallet.add(renewed)
    with pytest.raises(RenewalRefusedError):
        run("client-0", registry.renewal_flow(client, "broker", tables, renewed, info(25), dep.now))
    return recorder


def test_the_flows_speak_exactly_the_declared_schema(traffic):
    for method, flat in traffic.requests:
        assert _conforms(registry.WIRE_SCHEMA[method].request, flat) is not None, (method, flat)

    seen = set()
    for method, flat in traffic.replies:
        replies = registry.WIRE_SCHEMA[method].replies
        matched = [
            (name, batch)
            for name, shape in replies.items()
            if (batch := _conforms(shape, flat)) is not None
        ]
        assert len(matched) == 1, (method, sorted(flat))
        ((name, batch),) = matched
        items = replies[name].items
        for _, fields in batch:
            (position,) = [k for k, item in enumerate(items) if item.keys == set(fields)]
            seen.add((method, name, position if len(items) > 1 else None))
        if not batch:
            seen.add((method, name, None))

    # Every method and every reply alternative — deposit/batch's two item
    # kinds included — was exchanged at least once.
    declared = {
        (method, name, position)
        for method, schema in registry.WIRE_SCHEMA.items()
        for name, shape in schema.replies.items()
        for position in (range(len(shape.items)) if len(shape.items) > 1 else [None])
    }
    assert seen == declared
    assert {method for method, _ in traffic.requests} == set(registry.WIRE_SCHEMA)


def test_each_record_declares_the_keys_its_to_wire_writes(system, funded_client):
    client, stored = funded_client
    shop = other_merchant(system, stored.coin.witness_id)
    witness = system.witness_of(stored)
    request, pending = client.prepare_commitment_request(stored, shop, 10)
    commitment = witness.request_commitment(request, 10)
    transcript = client.build_payment(pending, commitment, witness.public_key, 10)
    signed = witness.sign_transcript(transcript, 10)
    records = [
        stored.coin.info,
        stored.coin.bare,
        stored.coin,
        stored.coin.witness_entry,
        request,
        commitment,
        transcript,
        signed,
    ]
    for record in records:
        assert set(flatten(record.to_wire())) == type(record).WIRE_KEYS, type(record)

    digest = stored.coin.digest(system.params)
    x_only = DoubleSpendProof(coin_hash=digest, x=stored.secrets.x, y=None)
    both = DoubleSpendProof.from_secrets(digest, stored.secrets)
    x_pair, y_pair = DoubleSpendProof.WIRE_PAIRS
    assert set(flatten(x_only.to_wire())) == DoubleSpendProof.WIRE_KEYS | x_pair
    assert set(flatten(both.to_wire())) == DoubleSpendProof.WIRE_KEYS | x_pair | y_pair


def _sample_keys(shape):
    """One concrete message's worth of keys: every declared key, group item 0."""
    keys = set(shape.keys).union(*shape.pairs)
    for item in shape.items:
        keys |= {f"{shape.group}0.{key}" if key else f"{shape.group}0" for key in item.keys}
    return keys


def test_every_declared_key_survives_the_codec():
    """A segment spelled like a short form (``e``, ``s``, ``b`` ...) would
    come back as its long form over sockets: ``abbreviate_key`` refuses it,
    and every declared key decodes as itself."""
    for method, schema in registry.WIRE_SCHEMA.items():
        for shape in (schema.request, *schema.replies.values()):
            keys = _sample_keys(shape)
            for key in keys:
                abbreviate_key(key)
            assert set(decode(encode(unflatten(dict.fromkeys(keys, "v"))))) == keys, method


def test_one_index_spelled_three_ways_is_not_one_deposit(system, funded_client):
    """The old split merged ``t1``, ``t01`` and ``t١`` into one item: a
    transcript assembled from three groups was credited as ``r1``."""
    client, stored = funded_client
    shop = other_merchant(system, stored.coin.witness_id)
    run_payment(client, stored, system.merchant(shop), system.witness_of(stored), 0)
    (signed,) = system.merchant(shop).pending_deposits()
    flat = flatten(signed.to_wire())
    keys = sorted(flat)
    payload = {"merchant_id": shop}
    for spelling, part in zip(("1", "01", "١"), (keys[0::3], keys[1::3], keys[2::3])):
        payload.update({f"batch.t{spelling}.{key}": flat[key] for key in part})
    handler = registry.broker_dispatch(system.broker, lambda: 0)["deposit/batch"]
    with pytest.raises(ProtocolViolationError, match="batch.t0..batch.t2"):
        handler(unflatten(payload))
    assert system.broker.merchant_balance(shop) == 0


def test_a_request_is_refused_on_keys_alone_before_its_handler_runs(system, funded_client):
    client, stored = funded_client
    witness = system.witness_of(stored)
    commit = registry.witness_dispatch(witness, lambda: 0)["witness/commit"]
    request, _ = client.prepare_commitment_request(stored, "shop", 0)
    honest = request.to_wire()
    for wrong in ({**honest, "junk": 1}, {"coin_hash": honest["coin_hash"]}, {}):
        with pytest.raises(ProtocolViolationError, match="witness/commit"):
            commit(wrong)
        assert witness._commitments == {}
    reply = commit(honest)
    assert reply["commitment"]["coin_hash"] == honest["coin_hash"]


def _render_part(part):
    if isinstance(part, str):
        return f"`{part}`"
    prefix, record = part
    return f"`{prefix}.`*{record.__name__}*" if prefix else f"*{record.__name__}*"


def _render(shape):
    parts = [_render_part(part) for part in shape.parts]
    if [item.keys for item in shape.items] == [{""}]:  # single-valued items
        parts.append(f"`{shape.group}<N>`")
    elif shape.group:
        items = " or ".join(_render(item) for item in shape.items)
        parts.append(f"`{shape.group}<N>.`({items})")
    return ", ".join(parts)


def render_schema():
    """``registry.WIRE_SCHEMA`` as the markdown table in docs/PROTOCOLS.md."""
    lines = ["| Method | Request keys | Reply keys |", "| --- | --- | --- |"]
    for method, schema in registry.WIRE_SCHEMA.items():
        replies = schema.replies
        if len(replies) == 1:
            reply = _render(*replies.values())
        else:
            reply = " · ".join(f"{name}: {_render(shape)}" for name, shape in replies.items())
        lines.append(f"| `{method}` | {_render(schema.request)} | {reply} |")
    return "\n".join(lines) + "\n"


def test_the_protocols_doc_shows_the_table_as_declared():
    text = DOC.read_text(encoding="utf-8")
    documented = text[text.index(BEGIN) + len(BEGIN) : text.index(END)]
    assert documented == render_schema(), "regenerate with:\n" + render_schema()
