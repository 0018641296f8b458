"""Withdrawals over real sockets with step 2's blinding run while
``withdraw/begin`` is in flight: the frame leaves first, the hint only
moves *when* the client computes — same coins as in process and over the
sim — and a refused call or a raising hint leaves client and connection
usable."""

import asyncio
import contextlib

import pytest

from repro import obs
from repro.core.exceptions import ServiceUnavailableError
from repro.core.protocols import run_withdrawal
from repro.core.system import EcashSystem
from repro.crypto.serialize import encode
from repro.daemon import wire
from repro.daemon.client import PeerConnection, SocketTransport
from repro.daemon.demo import BROKER, CLIENT, MERCHANT, WITNESS, read_books
from repro.daemon.framing import HEADER_BYTES
from repro.daemon.service import DaemonClock, DaemonNode
from repro.net import registry
from repro.net.costmodel import instant_profile
from repro.net.services import NetworkDeployment
from tests.daemon.test_rpc import identity

NOW = 10


def _system(params) -> EcashSystem:
    return EcashSystem(
        merchant_ids=(WITNESS, MERCHANT), params=params, seed=41, independent_rngs=True
    )


@contextlib.asynccontextmanager
async def _served(handlers):
    """``handlers`` on a loopback node named ``broker``; yields a client's transport."""
    ids = {name: identity(name) for name in (BROKER, CLIENT)}
    roster = {name: party.public for name, party in ids.items()}
    clock = DaemonClock()
    clock.pin(NOW)
    node = DaemonNode(
        identity=ids[BROKER],
        authorized=roster,
        host="127.0.0.1",
        port=0,
        handlers=handlers,
        clock=clock,
    )
    await node.start()
    transport = SocketTransport(ids[CLIENT], roster, {BROKER: ("127.0.0.1", node.port)})
    try:
        yield transport
    finally:
        await transport.close()
        await node.stop()


def _broker_handlers(system):
    return registry.broker_dispatch(system.broker, lambda: NOW)


def _withdrawal(system, client):
    info = system.standard_info(25, now=NOW)
    return registry.withdrawal_flow(client, BROKER, system.broker.tables, info)


def _logging_writes(connection: PeerConnection, events: list[str]) -> None:
    """Log every request frame the connection hands its socket."""
    write = connection.transport.write

    def logging_write(data: bytes) -> None:
        events.append("frame " + wire.parse_request(bytes(data)[HEADER_BYTES:])[0])
        write(data)

    connection.transport.write = logging_write


def _logging_hint(client, events: list[str]) -> None:
    """Log when the thunks ``client.prepare_withdrawal`` hands out do their work."""
    prepare = client.prepare_withdrawal

    def logging_prepare(info):
        prepared = prepare(info)
        done = []

        def logged():
            if not done:
                events.append("blinding starts")
            result = prepared()
            if not done:
                events.append("blinding done")
                done.append(True)
            return result

        return logged

    client.prepare_withdrawal = logging_prepare


def test_the_frame_leaves_before_the_hint_runs_and_the_reply_is_read_after(
    params, monkeypatch
):
    system = _system(params)
    client = system.new_client()
    events: list[str] = []
    parse = wire.parse_response

    def logging_parse(body):
        events.append("reply parsed")
        return parse(body)

    async def scenario():
        async with _served(_broker_handlers(system)) as transport:
            _logging_writes(await transport.connection(BROKER), events)
            _logging_hint(client, events)
            monkeypatch.setattr(wire, "parse_response", logging_parse)
            obs.reset()
            with obs.enabled():
                stored = await transport.run_flow(CLIENT, _withdrawal(system, client))
            assert stored.coin.bare.verify_signature(system.params, system.broker.blind_public)

    asyncio.run(scenario())
    assert events == [
        "frame withdraw/begin",
        "blinding starts",
        "blinding done",
        "reply parsed",
        "frame withdraw/complete",
        "reply parsed",
    ]
    counted = obs.registry().counter_value
    assert counted("transport_overlapped_calls_total", method="withdraw/begin") == 1
    assert counted("transport_overlapped_calls_total", method="withdraw/complete") == 0
    calls = {
        span.attributes["method"]: span.attributes.get("overlapped")
        for span in obs.tracer().finished
        if span.name == "daemon.call"
    }
    assert calls == {"withdraw/begin": 1, "withdraw/complete": None}
    obs.reset()


def test_the_first_call_of_a_transport_opens_its_connection_then_overlaps(params):
    """No connection yet: it is opened, and the frame still precedes the hint."""
    system = _system(params)
    client = system.new_client()
    events: list[str] = []
    begin = PeerConnection.begin

    def logging_begin(self, method, *args, **kwargs):
        events.append("begin " + method)
        return begin(self, method, *args, **kwargs)

    async def scenario():
        async with _served(_broker_handlers(system)) as transport:
            _logging_hint(client, events)
            PeerConnection.begin = logging_begin
            try:
                await transport.run_flow(CLIENT, _withdrawal(system, client))
            finally:
                PeerConnection.begin = begin

    asyncio.run(scenario())
    assert events == [
        "begin withdraw/begin",
        "blinding starts",
        "blinding done",
        "begin withdraw/complete",
    ]


def test_renewal_blinds_the_fresh_coin_while_renew_begin_is_in_flight(params):
    system = _system(params)
    client = system.new_client()
    old = run_withdrawal(client, system.broker, system.standard_info(25, now=NOW))
    events: list[str] = []

    async def scenario():
        async with _served(_broker_handlers(system)) as transport:
            _logging_writes(await transport.connection(BROKER), events)
            _logging_hint(client, events)
            flow = registry.renewal_flow(
                client,
                BROKER,
                system.broker.tables,
                old,
                system.standard_info(25, now=NOW + 1),
                lambda: NOW,
            )
            return await transport.run_flow(CLIENT, flow)

    fresh = asyncio.run(scenario())
    assert events == [
        "frame renew/begin",
        "blinding starts",
        "blinding done",
        "frame renew/complete",
    ]
    assert client.wallet.coins == [fresh]
    assert fresh.coin.bare.verify_signature(system.params, system.broker.blind_public)


def test_a_call_without_a_hint_takes_the_plain_path(params, monkeypatch):
    async def scenario():
        async with _served({"echo": lambda payload: {"text": "x"}}) as transport:
            async def never(call, meanwhile):
                raise AssertionError("the overlapped path ran for an un-hinted call")

            monkeypatch.setattr(transport, "_call_overlapped", never)

            def flow():
                reply = yield registry.RemoteCall(BROKER, "echo", {})
                return reply["text"]

            obs.reset()
            with obs.enabled():
                assert await transport.run_flow(CLIENT, flow()) == "x"
            assert obs.registry().counter_value(
                "transport_overlapped_calls_total", method="echo"
            ) == 0
            obs.reset()

    asyncio.run(scenario())


def test_a_refused_begin_costs_the_client_one_unused_blinding(params):
    """The hint ran, then the broker said no: the error reaches the flow
    and the client's next withdrawal is an ordinary one."""
    system = _system(params)
    client = system.new_client()
    handlers = _broker_handlers(system)
    begin = handlers["withdraw/begin"]
    refusals = [ServiceUnavailableError("mint closed")]

    def begin_after_one_refusal(payload):
        if refusals:
            raise refusals.pop()
        return begin(payload)

    handlers["withdraw/begin"] = begin_after_one_refusal
    events: list[str] = []
    _logging_hint(client, events)

    async def scenario():
        async with _served(handlers) as transport:
            with pytest.raises(ServiceUnavailableError, match="mint closed"):
                await transport.run_flow(CLIENT, _withdrawal(system, client))
            assert events == ["blinding starts", "blinding done"]
            assert client.wallet.coins == []
            stored = await transport.run_flow(CLIENT, _withdrawal(system, client))
            assert client.wallet.coins == [stored]
            assert stored.coin.bare.verify_signature(system.params, system.broker.blind_public)

    asyncio.run(scenario())


def test_a_raising_hint_abandons_the_call_and_keeps_the_connection():
    async def scenario():
        release = asyncio.Event()

        async def slow(payload):
            await release.wait()
            return {"late": 1}

        handlers = {"slow": slow, "echo": lambda payload: {"text": "next"}}
        async with _served(handlers) as transport:
            connection = await transport.connection(BROKER)

            def hint():
                raise RuntimeError("hint failed")

            seen = []

            def flow():
                try:
                    yield registry.RemoteCall(BROKER, "slow", {}, meanwhile=hint)
                except RuntimeError as error:
                    seen.append(error)  # thrown into the flow like a failed call
                    raise

            with pytest.raises(RuntimeError, match="hint failed"):
                await transport.run_flow(CLIENT, flow())
            assert len(seen) == 1
            for _ in range(3):  # the cancelled reply task ends, then its done-callback runs
                await asyncio.sleep(0)
            assert connection._pending == {}
            release.set()  # the reply to the abandoned call arrives — and is dropped
            assert await transport.call(BROKER, "echo", {}) == {"text": "next"}
            assert await transport.connection(BROKER) is connection
            assert transport.meter.messages_received == 1
            assert connection._pending == {}

    asyncio.run(scenario())


@pytest.mark.usefixtures("each_backend")
def test_a_seeded_client_mints_the_same_coins_on_every_transport(params):
    """In process, over the sim (hint unread) and over sockets (hint
    honoured): the client's draws come in one order, so the coins at rest
    are the same bytes."""
    infos = lambda system: [system.standard_info(value, now=NOW) for value in (25, 5)]

    direct = _system(params)
    client = direct.new_client()
    in_process = [run_withdrawal(client, direct.broker, info) for info in infos(direct)]

    simulated = _system(params)
    deployment = NetworkDeployment(simulated, cost_model=instant_profile(), seed=41)
    deployment.add_client(CLIENT)
    over_sim = [
        deployment.run(deployment.withdrawal_process(CLIENT, info))
        for info in infos(simulated)
    ]

    served = _system(params)
    payer = served.new_client()

    async def scenario():
        async with _served(_broker_handlers(served)) as transport:
            return [
                await transport.run_flow(
                    CLIENT,
                    registry.withdrawal_flow(payer, BROKER, served.broker.tables, info),
                )
                for info in infos(served)
            ]

    obs.reset()
    with obs.enabled():
        over_sockets = asyncio.run(scenario())
    overlapped = obs.registry().counter_value(
        "transport_overlapped_calls_total", method="withdraw/begin"
    )
    obs.reset()
    assert overlapped == 2

    at_rest = [
        [encode(stored.to_record()) for stored in coins]
        for coins in (in_process, over_sim, over_sockets)
    ]
    assert at_rest[0] == at_rest[1] == at_rest[2]
    assert len(set(at_rest[0])) == 2


def test_a_batch_withdrawal_over_sockets_mints_the_sims_coins_in_the_sims_bytes(params):
    """Alg. 1 step 0 has one client flow, ``registry.batch_withdrawal_flow``;
    a broker daemon serves it as the sim's broker does."""
    infos = lambda system: [system.standard_info(value, now=NOW) for value in (25, 5, 1)]

    simulated = _system(params)
    deployment = NetworkDeployment(simulated, cost_model=instant_profile(), seed=41)
    deployment.add_client(CLIENT)
    over_sim = deployment.run(
        deployment.batch_withdrawal_process(CLIENT, infos(simulated))
    )
    entries = deployment.network.trace.entries
    sim_log = [
        (request.method, request.size_bytes, response.size_bytes)
        for request, response in zip(
            [e for e in entries if e.destination == BROKER and e.kind == "request"],
            [e for e in entries if e.source == BROKER and e.kind == "response"],
        )
    ]

    served = _system(params)
    payer = served.new_client()

    async def scenario():
        async with _served(_broker_handlers(served)) as transport:
            flow = registry.batch_withdrawal_flow(
                payer, BROKER, served.broker.tables, infos(served)
            )
            coins = await transport.run_flow(CLIENT, flow)
            stats = await transport.call(BROKER, "admin/stats", {})
            return coins, read_books(stats)["rpc"]

    over_sockets, socket_log = asyncio.run(scenario())
    assert [encode(stored.to_record()) for stored in over_sockets] == [
        encode(stored.to_record()) for stored in over_sim
    ]
    assert [method for method, _, _ in socket_log] == [
        "withdraw/batch-begin",
        "withdraw/batch-complete",
    ]
    assert socket_log == sim_log
