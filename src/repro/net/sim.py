"""A minimal discrete-event simulator with generator-based processes.

Processes are plain generators that ``yield`` awaitables:

* :class:`Sleep` — resume after simulated seconds elapse;
* :class:`Future` — resume when the future resolves (with its value, or
  the stored exception re-raised inside the process);
* another generator — run it as a sub-process and resume with its return
  value (exceptions propagate).

The engine is a classic event heap: ``(time, sequence, action)`` triples
executed in order, with the sequence number breaking ties deterministically
so that seeded runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro import obs

ProcessGen = Generator[Any, Any, Any]


class SimTimeoutError(Exception):
    """An operation did not complete within its simulated deadline."""


@dataclass(frozen=True)
class Sleep:
    """Awaitable: pause the process for ``duration`` simulated seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("cannot sleep a negative duration")


class Future:
    """A one-shot result container processes can wait on."""

    _UNSET = object()

    def __init__(self) -> None:
        self._value: Any = Future._UNSET
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        """True once a result or exception has been set."""
        return self._value is not Future._UNSET or self._exception is not None

    def set_result(self, value: Any) -> None:
        """Resolve with a value; wakes all waiters.

        Raises:
            RuntimeError: already resolved.
        """
        if self.done:
            raise RuntimeError("future already resolved")
        self._value = value
        self._fire()

    def set_exception(self, exception: BaseException) -> None:
        """Resolve with an exception; waiters re-raise it.

        Raises:
            RuntimeError: already resolved.
        """
        if self.done:
            raise RuntimeError("future already resolved")
        self._exception = exception
        self._fire()

    def result(self) -> Any:
        """The resolved value.

        Raises:
            RuntimeError: not resolved yet.
            BaseException: the stored exception, if one was set.
        """
        if not self.done:
            raise RuntimeError("future not resolved")
        if self._exception is not None:
            raise self._exception
        return self._value

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Invoke ``callback(self)`` on resolution (immediately if done)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class LazyFuture(Future):
    """A future whose underlying operation starts only when awaited.

    Used by the RPC layer: the request leaves the node when a process
    *yields* the future, not when the call expression is evaluated — so
    compute delays charged before the yield correctly precede the send.
    """

    def __init__(self) -> None:
        super().__init__()
        self._dispatch_action: Callable[[], None] | None = None
        self.dispatched = False

    def on_dispatch(self, action: Callable[[], None]) -> None:
        """Register the deferred start action."""
        self._dispatch_action = action

    def dispatch(self) -> None:
        """Start the underlying operation (idempotent)."""
        if self.dispatched:
            return
        self.dispatched = True
        if self._dispatch_action is not None:
            self._dispatch_action()

    def cancel(self) -> None:
        """Abandon the operation: one not yet dispatched never starts."""
        if not self.dispatched:
            self.dispatched = True
            self._dispatch_action = None


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)


class Process:
    """Drives one generator process to completion."""

    def __init__(self, sim: "Simulator", generator: ProcessGen) -> None:
        self.sim = sim
        self._stack: list[ProcessGen] = [generator]
        self.future = Future()

    def _step(self, send_value: Any = None, throw: BaseException | None = None) -> None:
        while True:
            generator = self._stack[-1]
            try:
                if throw is not None:
                    exception, throw = throw, None
                    yielded = generator.throw(exception)
                else:
                    yielded = generator.send(send_value)
            except StopIteration as stop:
                self._stack.pop()
                if not self._stack:
                    self.future.set_result(stop.value)
                    return
                send_value = stop.value
                continue
            except BaseException as error:  # noqa: BLE001 - propagate to parent/future
                self._stack.pop()
                if not self._stack:
                    self.future.set_exception(error)
                    return
                throw = error
                send_value = None
                continue

            if isinstance(yielded, Sleep):
                self.sim.schedule(yielded.duration, self._step)
                return
            if isinstance(yielded, Future):
                if isinstance(yielded, LazyFuture):
                    yielded.dispatch()
                yielded.add_callback(self._on_future)
                return
            if hasattr(yielded, "send") and hasattr(yielded, "throw"):
                self._stack.append(yielded)
                send_value = None
                continue
            raise TypeError(
                f"process yielded unsupported value of type {type(yielded).__name__}"
            )

    def _on_future(self, future: Future) -> None:
        try:
            value = future.result()
        except BaseException as error:  # noqa: BLE001 - delivered into the process
            # Bind the exception now: the `except` variable is unbound once
            # the block exits, so a plain closure would see nothing.
            self.sim.schedule(0.0, lambda err=error: self._step(throw=err))
            return
        self.sim.schedule(0.0, lambda val=value: self._step(send_value=val))


class Simulator:
    """The event loop.

    Attributes:
        now: current simulated time in seconds.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[_Event] = []
        self._sequence = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, action: Callable[..., None], *args: Any) -> None:
        """Run ``action(*args)`` after ``delay`` simulated seconds.

        Raises:
            ValueError: negative delay.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        bound = (lambda: action(*args)) if args else action
        heapq.heappush(self._heap, _Event(self.now + delay, next(self._sequence), bound))

    def spawn(self, generator: ProcessGen) -> Future:
        """Start a process; returns a future for its return value."""
        process = Process(self, generator)
        self.schedule(0.0, process._step)
        if obs.is_enabled():
            obs.counter_inc("sim_processes_total")
            started = self.now
            process.future.add_callback(
                lambda _future: obs.observe(
                    "sim_process_duration_seconds", self.now - started
                )
            )
        return process.future

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains (or ``until`` is reached).

        Returns:
            The simulation time when processing stopped.
        """
        # Telemetry enablement is checked once per drain, not per event:
        # million-event campaign runs would otherwise pay two no-op
        # facade calls (plus a len()) for every event popped.
        record = obs.is_enabled()
        while self._heap:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return self.now
            if record:
                obs.observe("sim_event_queue_depth", len(self._heap))
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.action()
            self.events_processed += 1
            if record:
                obs.counter_inc("sim_events_total")
        return self.now

    def run_process(self, generator: ProcessGen, until: float | None = None) -> Any:
        """Spawn a process, run until *it* completes, return its result.

        Processing stops as soon as the process resolves, so unrelated
        pending events (e.g. not-yet-fired RPC timeout guards) neither run
        nor advance the clock.

        Raises:
            RuntimeError: the loop drained before the process finished
                (it deadlocked on a future nobody resolves).
            BaseException: whatever the process raised.
        """
        future = self.spawn(generator)
        self.run_until(future, until=until)
        if not future.done:
            raise RuntimeError("simulation ended before the process completed")
        return future.result()

    def run_until(self, future: Future, until: float | None = None) -> None:
        """Process events until ``future`` resolves (or the heap drains)."""
        record = obs.is_enabled()
        while self._heap and not future.done:
            if until is not None and self._heap[0].time > until:
                self.now = until
                return
            if record:
                obs.observe("sim_event_queue_depth", len(self._heap))
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.action()
            self.events_processed += 1
            if record:
                obs.counter_inc("sim_events_total")

    def timeout(self, future: Future, deadline: float) -> Future:
        """Wrap a future with a timeout.

        Returns a future resolving with the original's outcome, or failing
        with :class:`SimTimeoutError` if ``deadline`` seconds pass first.
        """
        wrapped = Future()

        def on_done(inner: Future) -> None:
            if wrapped.done:
                return
            try:
                wrapped.set_result(inner.result())
            except BaseException as error:  # noqa: BLE001 - forwarded
                wrapped.set_exception(error)

        def on_deadline() -> None:
            if not wrapped.done:
                wrapped.set_exception(
                    SimTimeoutError(f"timed out after {deadline} simulated seconds")
                )

        future.add_callback(on_done)
        self.schedule(deadline, on_deadline)
        return wrapped


__all__ = ["Future", "LazyFuture", "Process", "Simulator", "Sleep", "SimTimeoutError"]
