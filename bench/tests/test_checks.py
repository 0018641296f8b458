"""Output checks: a wrong outcome must show up in the counts and flip the exit code."""

import asyncio
import contextlib
import json
from types import SimpleNamespace

import pytest

from bench import ROOT, run, workloads
from bench.loadgen import PhaseResult
from bench.workloads import WORKLOADS, Report, LifecycleRun, check_deposit_reply, open_schedule


def reply(outcomes: list[tuple[str, int]]) -> dict:
    body: dict = {"count": len(outcomes)}
    for index, (outcome, amount) in enumerate(outcomes):
        body[f"r{index}"] = {"outcome": outcome, "amount": amount}
    return body


def test_deposit_reply_checks_count_outcome_and_amounts():
    assert check_deposit_reply(reply([("credited", 25), ("credited", 5)]), [5, 25]) == []
    assert check_deposit_reply(reply([("credited", 25)]), [5, 25]) == [
        "deposit count 1, expected 2"
    ]
    wrong = check_deposit_reply(
        reply([("credited", 25), ("credited-from-witness-deposit", 5)]), [5, 25]
    )
    assert wrong == ["deposit 1 outcome 'credited-from-witness-deposit'"]
    assert check_deposit_reply(reply([("credited", 25), ("credited", 10)]), [5, 25]) == [
        "deposited amounts differ from the coins paid"
    ]


def test_an_accepted_double_spend_is_a_failure_and_a_problem(monkeypatch):
    async def accepted(transport, flow, tracer):
        return object()  # the witness countersigned the replay

    monkeypatch.setattr(workloads, "run_flow", accepted)
    monkeypatch.setattr(workloads.registry, "direct_spend_flow", lambda *args: iter(()))
    this = LifecycleRun(WORKLOADS["lifecycle_memory"], seed=1, seconds=1, tracer=None)
    this.dep = SimpleNamespace(system=SimpleNamespace(params=None), transports={"client-0": None})
    this.clients = [None]
    with pytest.raises(AssertionError, match="double-spend accepted"):
        asyncio.run(this.replay(0, SimpleNamespace(coin=None), "carol-games"))
    assert this.report.problems == ["a double-spend was ACCEPTED"]
    assert not this.report.correct


def failing_report(problem: str | None, failed: int) -> Report:
    report = Report("lifecycle_memory", seed=1, seconds=1)
    report.phases["refuse"] = PhaseResult(attempted=10, failed=failed, wall_s=1.0)
    if problem:
        report.problems.append(problem)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report.metrics = {m["name"]: (1.5, m["unit"], 10) for m in spec["end_to_end"]}
    return report


@pytest.mark.parametrize(
    "problem, failed, code",
    [
        (None, 0, 0),
        ("a double-spend was ACCEPTED", 1, 1),
        ("bob-news: deposit count 99, expected 100", 0, 1),
        (None, 3, 1),
    ],
)
def test_exit_code_follows_checks_and_failures(monkeypatch, capsys, problem, failed, code):
    monkeypatch.setattr(run, "run_one", lambda *args: failing_report(problem, failed))
    monkeypatch.setattr(run, "pin_load_generator", lambda: None)
    monkeypatch.setattr(run, "keep_awake", lambda cores: contextlib.nullcontext())
    assert run.main(["--workload", "lifecycle_memory", "--seconds", "1"]) == code
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is (code == 0)
    assert (last["attempted"], last["failed"]) == (10, failed)


def test_open_schedule_is_seeded_and_holds_the_pinned_rate():
    shops = ("bob-news", "carol-games")
    first = open_schedule(7, 200, shops)
    assert first == open_schedule(7, 200, shops)
    assert first != open_schedule(8, 200, shops)
    offsets = [due for due, _ in first]
    assert offsets[0] == 0.0 and offsets == sorted(offsets)
    assert offsets[-1] == pytest.approx(199 / workloads.OPEN_RATE)
    share_hot = sum(1 for _, shop in first if shop == shops[0]) / len(first)
    assert 0.55 < share_hot < 0.8  # Zipf(1.0) over two ranks: 2/3 on the first
