"""The binary-heap event kernel: the oracle for the calendar queue.

:class:`HeapEnvironment` is the simulation kernel before the calendar
queue replaced its scheduler: one heap of ``(time, priority, seq, event)``
entries. The calendar queue must replay its exact event order — the kernel
differential suites run the same seeded workloads on both and compare
transcripts, and ``benchmarks/test_bench_micro.py`` measures the drain
against it.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Optional

from repro.sim.kernel import Environment, Event, SimError, Timeout

__all__ = ["HeapEnvironment"]

#: Heap entries are plain ``(time, priority, seq, event)`` tuples — tuple
#: comparison is implemented in C and ``seq`` is unique, so ordering never
#: reaches the (incomparable) event and heap ops stay cheap.
_QueueEntry = tuple[float, int, int, Event]


class HeapEnvironment(Environment):
    """The original binary-heap kernel, kept verbatim as an oracle.

    Heap entries carry an explicit ``(time, priority, seq)`` key; the
    differential suite asserts the calendar queue replays its exact event
    order. Profiling is refused: the oracle stays verbatim. Like the
    calendar kernel, it refuses a nested ``run()``.
    """

    reference = True

    __slots__ = ("_queue", "_seq")

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count().__next__
        self.timeout = self._timeout

    def _timeout(self, delay: float, value: Any = None) -> Timeout:
        """``env.timeout`` on the oracle: a Timeout with its slots written
        one by one, scheduled through the heap's ``_schedule``."""
        if not delay >= 0:   # false for a negative delay and for NaN
            raise ValueError(f"delay must be a number >= 0, got {delay}")
        event = object.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event.defused = False
        event.dead = False
        event.delay = delay
        self._schedule(event, delay)
        return event

    def profile(self, callback) -> None:
        if callback is not None:
            raise SimError("profiling is not supported on the reference "
                           "(differential-oracle) kernel")

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = Environment.NORMAL) -> None:
        heappush(self._queue,
                 (self._now + delay, priority, self._seq(), event))

    @property
    def quiet_until(self) -> float:
        until = self._until
        if until is None:
            return self._now
        queue = self._queue
        if queue and queue[0][0] < until:
            return queue[0][0]
        return until

    def run(self, until: Optional[float | Event] = None) -> Any:
        if self._draining:
            raise SimError("run() is not reentrant")
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:   # a past time, or NaN
                raise ValueError(
                    f"until={stop_time} is not a time at or after now "
                    f"({self._now})"
                )

        queue = self._queue
        done = 0
        dead_skipped = 0
        self._draining = True
        self._until = stop_time
        try:
            while queue:
                if stop_event is not None and stop_event.processed:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                self._now, _, _, event = heappop(queue)
                done += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
                elif event.dead:
                    dead_skipped += 1
                elif not event._ok and not event.defused:
                    raise event._value
        finally:
            self._draining = False
            self._until = None
            self._events_done += done
            self._dead_skipped += dead_skipped

        if stop_event is not None:
            if stop_event.processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            raise SimError("simulation ended before the awaited event fired")
        if stop_time != float("inf"):
            self._now = stop_time
        return None
