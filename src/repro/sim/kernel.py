"""Discrete-event simulation kernel.

Everything in this reproduction — hosts, hypervisors, the VEEM, the Service
Manager's rule engine, monitoring probes and the Condor-like grid — runs on
this kernel. It provides a calendar-queue event loop with generator-based
processes, in the style of SimPy but self-contained.

Design notes
------------
* Time is a ``float`` in seconds. The kernel makes no assumption about wall
  clock; experiments run simulated hours in milliseconds of CPU time.
* Processes are Python generators that ``yield`` *waitables*: :class:`Timeout`,
  :class:`Event`, :class:`Process` (join) or :class:`AnyOf`/:class:`AllOf`
  combinators.
* The scheduler is a calendar queue (a degenerate one-level timer wheel keyed
  by exact timestamps): events land in a per-timestamp FIFO bucket and a small
  heap orders only the *distinct* timestamps. Provisioning workloads are
  heavily biased toward short delays and same-instant cascades — thousands of
  events share each timestamp — so the heap stays tiny while the per-event
  cost collapses to a list append. While the drain loop is inside a
  timestamp, zero-delay events are appended straight onto the live batch
  (the *cascade batcher*): an event chain at one instant costs one queue
  transaction instead of a heap push/pop per link.
* Event ordering is deterministic and identical to a binary-heap scheduler
  ordered by ``(time, priority, seq)``: buckets are split per priority
  (URGENT drains before NORMAL at each timestamp) and appends happen in
  creation order, so FIFO bucket order *is* seq order without materialising a
  sequence number. The original heap kernel lives on as the differential
  oracle in ``tests/oracles/kernel.py``; seeded runs replay identically on
  both.
* Cancellation is lazy: an abandoned event (an interrupted process's old
  timeout, an ``AnyOf`` loser) is marked ``dead`` and skipped when its bucket
  drains, rather than being dug out of the queue. Skips are counted in
  ``kernel.events.dead_skipped``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.metrics import MetricsRegistry

__all__ = [
    "SimError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Environment",
]


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

#: Sentinel for "event has not yet been given a value".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled to fire and carrying a value), and *processed* (callbacks run).
    Events may succeed (:meth:`succeed`) or fail (:meth:`fail`); waiting on a
    failed event re-raises its exception inside the waiting process.

    ``__slots__`` on the kernel's event classes keeps per-event memory flat
    and attribute access cheap — simulations allocate millions of these.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "dead")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: If a failed event is never waited on, its exception would be lost;
        #: the kernel re-raises it at the end of the run unless ``defused``.
        self.defused = False
        #: Lazily cancelled (an abandoned plain Timeout: an interrupted
        #: process's old wait or an ``AnyOf`` loser): skipped, and counted,
        #: at dispatch if no callbacks remain. Attaching a callback
        #: afterwards revives it.
        self.dead = False

    # -- state ---------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    ``env.timeout(delay, value=None)`` is the one way to make one: the
    factory :func:`_make_timeout_factory` writes the slots and schedules
    it.
    """

    __slots__ = ("delay",)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


def _make_timeout_factory(env: "Environment") -> Callable[..., Timeout]:
    """Build the environment's ``timeout(delay, value=None)`` factory.

    A plain closure over the environment rather than a bound method: it
    allocates the Timeout with ``object.__new__``, writes the slots
    directly and inlines the bucket insert of :meth:`Environment._schedule`,
    skipping the ``type.__call__`` dispatch, the ``__init__`` frame and the
    ``_schedule`` call — timeout creation is the hottest call in the
    harness, and this shaves the constant per-call machinery off it.
    """
    new = object.__new__

    def timeout(delay: float, value: Any = None) -> Timeout:
        if not delay >= 0:   # false for a negative delay and for NaN
            raise ValueError(f"delay must be a number >= 0, got {delay}")
        self = new(Timeout)
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.dead = False
        self.delay = delay
        if not delay and env._draining:
            env._live_n.append(self)
        else:
            t = env._now + delay
            buckets = env._buckets
            bucket = buckets.get(t)
            if bucket is not None:
                bucket.append(self)
            else:
                buckets[t] = [self]
                heappush(env._times, t)
        return self
    return timeout


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The generator's ``return`` value becomes the event value, so
    ``yield some_process`` implements *join*.
    """

    __slots__ = ("_generator", "_send", "_resume_cb", "name", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._send = generator.send
        # The bound method is materialised once: parking appends it to an
        # event's callback list on every yield, and ``obj.method`` otherwise
        # allocates a fresh bound-method object each evaluation.
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # event the process is waiting on
        # Kick off on a zero-delay "initialize" event, at URGENT priority so
        # the process starts before same-time normal events (in particular
        # interrupts delivered in the same instant it was created).
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        env._schedule(init, priority=Environment.URGENT)
        self._target = init

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a process that has not yet had its first resume is
        legal: the init event (scheduled URGENT) starts the generator first,
        so the interrupt lands on its first yield — throwing into an
        unstarted generator would bypass the process's try/except.

        The victim is unsubscribed from its abandoned wait target at
        *delivery* time, not here: when interrupting a not-yet-started
        process the first-yield target does not even exist yet, and a
        target left subscribed would later resume the process at the wrong
        yield with a stale value.
        """
        if self.triggered:
            raise SimError(f"{self.name} has already terminated")
        # Deliver the interrupt via an immediately-scheduled failed event that
        # detaches the abandoned wait, then routes through the resume logic.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._on_interrupt)
        self.env._schedule(event)

    # -- internal ------------------------------------------------------------
    def _on_interrupt(self, event: Event) -> None:
        if self._value is not _PENDING:
            return      # stale: the process finished before delivery
        # The init event is URGENT and this interrupt NORMAL, so the init
        # event has always been dispatched (its callbacks are None) by now.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            else:
                # The abandoned wait target stays queued; if we were its only
                # watcher and it is a plain Timeout (can never fail, carries
                # no side effects), mark it dead so the drain loop skips it.
                if not target.callbacks and type(target) is Timeout:
                    target.dead = True
        self._resume(event)

    def _resume(self, event: Event) -> None:
        # ``self._value is not _PENDING`` is ``triggered`` with the property
        # descriptor peeled off — this method runs once per event.
        if self._value is not _PENDING:
            # Stale wakeup: the process finished before this event fired
            # (e.g. an interrupt aimed at a process that completed during
            # its very first resume). Nothing to deliver to.
            if not event._ok:
                event.defused = True
            return
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event.defused = True
                    failure = event._value
                    tb = failure.__traceback__
                    # A failure the generator handles keeps the traceback
                    # it came with: the generator's frame may hold the
                    # failed process, which holds the failure.
                    try:
                        next_event = self._generator.throw(failure)
                    except StopIteration:
                        failure.__traceback__ = tb
                        raise
                    failure.__traceback__ = tb
            except StopIteration as stop:
                self._finish(True, stop.value)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                # The process keeps its exception; this frame (which holds
                # ``self``) leaves the traceback so they form no cycle.
                exc.__traceback__ = exc.__traceback__.tb_next
                self._finish(False, exc)
                break

            # Duck-typed in place of ``isinstance(next_event, Event)``: every
            # Event exposes ``callbacks``, and the miss path (yielding a
            # non-event) is a programming error where the try's cost is
            # irrelevant. try/except is free until it throws.
            try:
                cbs = next_event.callbacks
            except AttributeError:
                exc = SimError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                self._finish(False, exc)
                break

            if cbs is not None:
                # Event still pending/triggered-but-unprocessed: park here.
                cbs.append(self._resume_cb)
                self._target = next_event
                break
            # Event already processed: loop and deliver its value at once.
            event = next_event

    def _finish(self, ok: bool, value: Any) -> None:
        # Drop the generator and every reference back to this process
        # (``_resume_cb`` is a bound method of it), so a finished process
        # is freed by reference counting, not by the cycle collector.
        self._generator = self._send = self._resume_cb = self._target = None
        self._ok = ok
        self._value = value
        if not ok and isinstance(value, BaseException):
            # Re-raised at run() unless some waiter defuses it.
            self.defused = False
        self.env._schedule(self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'dead' if self.triggered else 'alive'}>"


class _Condition(Event):
    """Base for AnyOf / AllOf combinators."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for e in self.events:
            if e.env is not env:
                raise SimError("cannot mix events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for e in self.events:
            if e.callbacks is None:
                self._check(e)
            else:
                e.callbacks.append(self._check)
        if self.triggered:
            # Triggered mid-subscription: events visited after the trigger
            # still got our callback; detach the losers now.
            self._discard_pending()

    def _collect(self) -> dict[Event, Any]:
        # Use *processed* (callbacks already run), not *triggered*: a Timeout
        # carries its value from construction and so is "triggered" before it
        # has actually fired.
        return {
            e: e._value for e in self.events
            if e.processed and e._ok
        }

    def _discard_pending(self) -> None:
        """Lazy cancellation of losers once the condition's outcome is fixed.

        Every pending loser drops the condition's callback: once triggered,
        ``_check`` returns before it defuses anything, so detaching it
        changes no dispatch, value or raised error, and a finished wait
        pins nothing until its losers fire (a VM's ``on_stopped`` may come
        hours later). Only a plain Timeout left with no callback is
        dead-marked: a Timeout can never fail, so skipping its dispatch
        cannot swallow an error the kernel would otherwise raise, and
        nothing else observes it.
        """
        check = self._check
        for e in self.events:
            cbs = e.callbacks
            if cbs is not None:
                try:
                    cbs.remove(check)
                except ValueError:
                    continue
                if not cbs and type(e) is Timeout:
                    e.dead = True

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._discard_pending()


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            self._discard_pending()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

class Environment:
    """The simulation environment: clock plus event queue.

    The scheduler is a calendar queue (see the module docstring).

    Example
    -------
    >>> env = Environment()
    >>> log = []
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     log.append(env.now)
    >>> _ = env.process(proc(env))
    >>> env.run()
    >>> log
    [5.0]
    """

    #: Priority for "urgent" events (used internally for initialisation).
    URGENT = 0
    NORMAL = 1

    #: True only on the heap kernel kept as the differential oracle in
    #: ``tests/oracles/kernel.py``. A class attribute, not a switch: tools
    #: that hook every environment (``perfbench/ledger.py``) read it to
    #: leave the oracle unprofiled.
    reference = False

    __slots__ = ("_now", "_buckets", "_urgent", "_times", "_live_n",
                 "_live_u", "_draining", "_events_done", "_dead_skipped",
                 "_metrics", "_obs_scope", "_profile_cb", "_until",
                 "timeout")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Calendar queue state. ``_buckets``/``_urgent`` map an exact
        # timestamp to the FIFO list of events due then (split per priority);
        # ``_times`` is a heap over the distinct timestamps (it may briefly
        # hold a duplicate when both priority dicts gain the same key — the
        # drain loop dedupes). ``_live_*`` is the batch currently being
        # drained; same-instant arrivals append straight onto it.
        self._buckets: dict[float, list[Event]] = {}
        self._urgent: dict[float, list[Event]] = {}
        self._times: list[float] = []
        self._live_n: deque[Event] = deque()
        self._live_u: deque[Event] = deque()
        self._draining = False
        #: Stop time of the running ``run()`` (``inf`` without a time
        #: bound), ``None`` outside one; read by :attr:`quiet_until`.
        self._until: Optional[float] = None
        #: Events dispatched so far; flushed per batch during a drain.
        self._events_done = 0
        self._dead_skipped = 0
        #: Lazily-built metrics registry (one per environment); see
        #: :attr:`metrics`.
        self._metrics: Optional[Any] = None
        #: Optional per-event profiling hook; see :meth:`profile`. When set,
        #: :meth:`run` times each dispatch and reports it to the hook.
        self._profile_cb: Optional[Any] = None
        #: ``env.timeout(delay, value=None)`` — a specialised closure rather
        #: than a method; see :func:`_make_timeout_factory`.
        self.timeout = _make_timeout_factory(self)
        #: Ambient span stack: the implicit causal parent for spans and trace
        #: records created synchronously inside a scope. It lives here — not
        #: on any one TraceLog — because causality is a property of the
        #: execution context: a VEEM tracing to its own log still parents its
        #: deploy span under the rule firing that invoked it. Scopes must
        #: never span a ``yield`` (processes interleave); cross-process
        #: causality is passed explicitly via ``parent=``.
        self._obs_scope: list[Any] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events dispatched (including dead skips).

        Exact whenever the kernel is quiescent; during a drain it trails the
        live batch by at most the batch length.
        """
        return self._events_done

    @property
    def dead_skipped(self) -> int:
        """Lazily-cancelled events skipped at dispatch."""
        return self._dead_skipped

    @property
    def metrics(self):
        """The environment's :class:`~repro.obs.metrics.MetricsRegistry`.

        Built on first access so simulations that never touch observability
        pay nothing. The kernel's own counters are its gauges under
        ``kernel.*`` (:meth:`metric_rows`).
        """
        if self._metrics is None:
            self._metrics = MetricsRegistry()
            self._metrics.add_source(self)
        return self._metrics

    def metric_rows(self):
        yield "kernel.events.processed", {}, self.events_processed
        yield "kernel.events.dead_skipped", {}, self._dead_skipped

    @property
    def current_span(self):
        """The innermost ambient span, or None outside any scope."""
        scope = self._obs_scope
        return scope[-1] if scope else None

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        # Cascade batcher: a zero-delay event scheduled while its own instant
        # is draining joins the live batch directly — no queue transaction.
        # FIFO appends preserve the heap kernel's (time, priority, seq) order
        # because creation order *is* seq order.
        if not delay and self._draining:
            (self._live_n if priority else self._live_u).append(event)
            return
        t = self._now + delay
        buckets = self._buckets if priority else self._urgent
        bucket = buckets.get(t)
        if bucket is not None:
            bucket.append(event)
        else:
            buckets[t] = [event]
            heappush(self._times, t)

    @property
    def quiet_until(self) -> float:
        """The first instant at which any dispatch or caller code can act.

        Inside :meth:`run`, once the current instant has no queued event
        left, that is the earlier of the next queued timestamp and the
        run's stop time: until then the clock only advances. Anywhere else
        (between runs, mid-instant) it is ``now``. A
        periodic process may account its ticks strictly before it without
        being woken for them.
        """
        until = self._until
        if until is None or self._live_u or self._live_n:
            return self._now
        times = self._times
        if times and times[0] < until:
            return times[0]
        return until

    def profile(self, callback) -> None:
        """Install (or with ``None``, remove) a per-event profiling hook.

        The hook is called after every dispatch as ``callback(event,
        callbacks, wall_s)`` — the event, the callback list it was
        dispatched with (``None`` for a lazily-cancelled dead skip), and
        the wall-clock seconds the dispatch took. Event *order* is
        identical to the unprofiled drain; only wall-clock changes, which
        is invisible to the simulation.
        """
        self._profile_cb = callback

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a time (run until
        the clock would pass it), or an :class:`Event` (run until it fires and
        return its value).
        """
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

        # The drain loop is the single hottest path in the harness: queue
        # state is bound locally and the common dispatch (one callback, event
        # ok) is branch-minimal; the profiling hook is read once, so an
        # unprofiled dispatch pays one ``hook is not None`` test for it. The
        # dispatch tally is written back in the finally so an exception (or
        # an until= return) leaves the counters and queue resumable.
        hook = self._profile_cb
        times = self._times
        buckets = self._buckets
        urgent = self._urgent
        live_n = self._live_n
        live_u = self._live_u
        pop_n = live_n.popleft
        pop_u = live_u.popleft
        done = 0
        dead_skipped = 0
        self._draining = True
        self._until = stop_time
        try:
            while True:
                # ``callbacks is None`` is the processed marker with the
                # property descriptor peeled off — this check runs per event
                # whenever a run() awaits an event.
                if stop_event is not None and stop_event.callbacks is None:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                # Urgent first on every pick: an URGENT event scheduled
                # mid-batch must still beat the remaining NORMAL events of
                # the same instant, exactly as it would in the heap order.
                if live_u:
                    event = pop_u()
                elif live_n:
                    event = pop_n()
                else:
                    # Batch exhausted: adopt the next timestamp's buckets.
                    self._events_done += done
                    done = 0
                    if not times:
                        break
                    t = times[0]
                    if t > stop_time:
                        self._now = stop_time
                        return None
                    heappop(times)
                    while times and times[0] == t:
                        heappop(times)
                    self._now = t
                    bucket = buckets.pop(t, None)
                    if bucket is not None:
                        live_n.extend(bucket)
                    bucket = urgent.pop(t, None) if urgent else None
                    if bucket is not None:
                        live_u.extend(bucket)
                    continue

                done += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    if hook is not None:
                        t0 = perf_counter()
                        for callback in callbacks:
                            callback(event)
                        hook(event, callbacks, perf_counter() - t0)
                    elif len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
                elif event.dead:
                    dead_skipped += 1
                    if hook is not None:
                        hook(event, None, 0.0)
                elif not event._ok and not event.defused:
                    raise event._value
                elif hook is not None:
                    hook(event, None, 0.0)
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
