"""Span self-time arithmetic and parent tracking."""

import asyncio

from bench.tracing import Span, Tracer, self_times


def span(id: int, parent: int | None, start: float, end: float, name: str = "s") -> Span:
    return Span(id=id, name=name, trace="t", parent=parent, start=start, end=end)


def test_self_time_is_duration_minus_the_union_of_child_intervals():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),   # 3 s
        span(2, 0, 3.0, 6.0),   # overlaps the first child: union is 1..6 = 5 s
        span(3, 0, 8.0, 12.0),  # runs past the parent: only 8..10 counts
        span(4, 1, 1.5, 2.0),   # grandchild: not subtracted from the root
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 5.0 - 2.0
    assert own[1] == 3.0 - 0.5
    assert own[2] == 3.0 and own[4] == 0.5


def test_tracer_parents_follow_the_asyncio_task_not_the_wall_clock():
    tracer = Tracer()

    async def payment(name: str) -> None:
        with tracer.span(name, trace=name):
            await asyncio.sleep(0.01)
            with tracer.span("rpc"):
                await asyncio.sleep(0.01)

    async def main() -> None:
        await asyncio.gather(payment("p1"), payment("p2"))

    asyncio.run(main())
    roots = {s.id: s.name for s in tracer.spans if s.parent is None}
    assert sorted(roots.values()) == ["p1", "p2"]
    for child in (s for s in tracer.spans if s.name == "rpc"):
        assert child.trace == roots[child.parent]
        assert child.duration > 0
