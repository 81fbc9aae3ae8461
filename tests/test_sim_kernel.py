"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Process,
    SimError,
)
from tests.oracles.kernel import HeapEnvironment


def make_env(reference: bool) -> Environment:
    """The calendar-queue kernel, or with ``reference`` the heap oracle."""
    return HeapEnvironment() if reference else Environment()


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    observed = []

    def proc(env):
        yield env.timeout(5)
        observed.append(env.now)
        yield env.timeout(2.5)
        observed.append(env.now)

    env.process(proc(env))
    env.run()
    assert observed == [5.0, 7.5]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_timeout_refuses_a_delay_that_is_not_a_number_from_zero(reference,
                                                                delay):
    """NaN fails ``delay < 0`` as it fails every comparison; a NaN timeout
    would resume its process at ``now == nan``."""
    env = make_env(reference)
    with pytest.raises(ValueError, match=f"got {delay}"):
        env.timeout(delay)
    env.run()
    assert env.now == 0.0 and env.events_processed == 0


def test_timeout_delivers_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25.0


def test_run_until_past_time_raises():
    env = Environment(initial_time=50)
    with pytest.raises(ValueError):
        env.run(until=10)


@pytest.mark.parametrize("reference", [False, True])
def test_run_until_nan_raises_and_leaves_the_clock(reference):
    """``run(until=nan)`` would drain a finite queue and leave ``now ==
    nan`` (and never return with a periodic process)."""
    env = make_env(reference)
    env.timeout(5)
    with pytest.raises(ValueError, match="until=nan"):
        env.run(until=float("nan"))
    assert env.now == 0.0 and env.events_processed == 0
    env.run(until=10)
    assert env.now == 10.0 and env.events_processed == 1


def test_process_join_returns_value():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(3.0, 42)]


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    order = []

    def maker(env, tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    env.process(maker(env, "a", 5))
    env.process(maker(env, "b", 5))
    env.process(maker(env, "c", 1))
    env.run()
    assert order == ["c", "a", "b"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    done = []
    gate = env.event()

    def waiter(env):
        value = yield gate
        done.append((env.now, value))

    def opener(env):
        yield env.timeout(4)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert done == [(4.0, "open")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimError):
        ev.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    seen = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            seen.append(str(exc))

    gate = env.event()

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert seen == ["boom"]


def test_unhandled_process_exception_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            seen.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(7)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert seen == [(7.0, "wake up")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    trace = []

    def resilient(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            trace.append(("interrupted", env.now))
        yield env.timeout(5)
        trace.append(("done", env.now))

    def interrupter(env, victim):
        yield env.timeout(10)
        victim.interrupt()

    victim = env.process(resilient(env))
    env.process(interrupter(env, victim))
    env.run()
    assert trace == [("interrupted", 10.0), ("done", 15.0)]


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="fast")
        t2 = env.timeout(10, value="slow")
        fired = yield AnyOf(env, [t1, t2])
        results.append((env.now, sorted(fired.values())))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, ["fast"])]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(10, value="b")
        fired = yield AllOf(env, [t1, t2])
        results.append((env.now, sorted(fired.values())))

    env.process(proc(env))
    env.run()
    assert results == [(10.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        yield env.all_of([])
        results.append(env.now)

    env.process(proc(env))
    env.run()
    assert results == [0.0]


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "answer"

    p = env.process(proc(env))
    assert env.run(until=p) == "answer"
    assert env.now == 3.0


def test_run_until_never_fired_event_raises():
    env = Environment()
    orphan = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimError):
        env.run(until=orphan)


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimError):
        env.run()


def test_nested_processes_chain():
    env = Environment()

    def leaf(env, n):
        yield env.timeout(n)
        return n * 2

    def mid(env):
        a = yield env.process(leaf(env, 2))
        b = yield env.process(leaf(env, 3))
        return a + b

    p = env.process(mid(env))
    assert env.run(until=p) == 10
    assert env.now == 5.0


def test_many_processes_deterministic():
    """Two identical runs produce identical event orderings."""

    def run_once():
        env = Environment()
        order = []

        def worker(env, i):
            yield env.timeout(i % 7)
            order.append(i)
            yield env.timeout((i * 13) % 5)
            order.append(-i)

        for i in range(50):
            env.process(worker(env, i))
        env.run()
        return order

    assert run_once() == run_once()


def test_interrupt_before_first_resume_is_caught():
    """Interrupting a just-created process must land on its first yield,
    inside the process's try/except — not escape from an unstarted
    generator."""
    env = Environment()
    seen = []

    def guarded(env):
        try:
            while True:
                yield env.timeout(30)
        except Interrupt as intr:
            seen.append(intr.cause)

    proc = env.process(guarded(env))
    proc.interrupt("early")   # before env.run(): no event has fired yet
    env.run()
    assert seen == ["early"]


def test_interrupt_process_that_finishes_during_init_is_harmless():
    """A process whose body returns immediately (guard already false) may
    receive a same-instant interrupt; the stale interrupt must be dropped."""
    env = Environment()
    flag = {"active": True}

    def loop(env):
        while flag["active"]:
            yield env.timeout(30)

    proc = env.process(loop(env))
    flag["active"] = False
    proc.interrupt("stop")
    env.run()   # must not raise
    assert proc.triggered


def test_processes_start_before_same_time_events():
    """Init events run URGENT: a process created at time t observes state
    changes scheduled at t only after its first yield."""
    env = Environment()
    order = []

    def proc(env):
        order.append("started")
        yield env.timeout(0)
        order.append("resumed")

    env.process(proc(env))
    gate = env.event()
    gate.succeed()  # normal-priority event at the same instant
    gate.callbacks.append(lambda _e: order.append("gate"))
    env.run()
    assert order[0] == "started"


# ---------------------------------------------------------------------------
# Lazy cancellation, dead-entry skipping and kernel counters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reference", [False, True])
def test_cancelled_timeout_is_skipped_dead(reference):
    """An ``AnyOf`` loser stays queued, dead, until its timestamp drains."""
    env = make_env(reference)
    doomed = env.timeout(7)
    env.any_of([env.timeout(5), doomed])
    env.run()
    assert env.now == 7.0
    assert doomed.dead
    assert env.dead_skipped == 1
    # Dead pops still count as processed work: winner, AnyOf and loser.
    assert env.events_processed == 3


@pytest.mark.parametrize("reference", [False, True])
def test_anyof_loser_timeout_is_dead_marked(reference):
    env = make_env(reference)
    fired_at = []

    def proc(env):
        fast = env.timeout(1, value="fast")
        slow = env.timeout(100, value="slow")
        yield AnyOf(env, [fast, slow])
        fired_at.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired_at == [1.0]
    # The losing 100 s timeout stayed queued but was skipped at pop time.
    assert env.now == 100.0
    assert env.dead_skipped == 1


@pytest.mark.parametrize("reference", [False, True])
def test_anyof_detaches_from_every_pending_loser(reference):
    """A fired condition leaves no callback on a loser that is not a
    Timeout either, so a finished wait pins nothing; the loser still
    fires, and the condition keeps its value."""
    env = make_env(reference)
    winner, loser = env.event(), env.event()
    condition = env.any_of([winner, loser])
    winner.succeed("w")
    env.run()
    assert condition.value == {winner: "w"}
    assert loser.callbacks == []
    loser.succeed("late")
    env.run()
    assert loser.processed and not loser.dead
    assert condition.value == {winner: "w"}


@pytest.mark.parametrize("reference", [False, True])
def test_interrupt_dead_marks_abandoned_timeout(reference):
    env = make_env(reference)
    log = []

    def sleeper(env):
        try:
            yield env.timeout(50)
            log.append("overslept")
        except Interrupt as exc:
            log.append(("interrupted", env.now, exc.cause))

    def poker(env, victim):
        yield env.timeout(5)
        victim.interrupt("wake")

    victim = env.process(sleeper(env))
    env.process(poker(env, victim))
    env.run()
    assert log == [("interrupted", 5.0, "wake")]
    # The abandoned 50 s timeout is skipped when its bucket drains.
    assert env.now == 50.0
    assert env.dead_skipped == 1


@pytest.mark.parametrize("reference", [False, True])
def test_interrupt_before_start_detaches_first_wait(reference):
    """Regression: interrupting a process before its first resume must not
    leave the first yielded event subscribed. The unsubscribe happens at
    interrupt *delivery* time, after the process has parked on its first
    target -- a stale resume from that target would re-enter the generator
    at the wrong yield."""
    env = make_env(reference)
    log = []

    def guarded(env):
        try:
            yield env.timeout(30)
            log.append("slept")
        except Interrupt:
            log.append(("interrupted", env.now))
        got = yield env.timeout(5, value="ok")
        log.append((got, env.now))

    proc = env.process(guarded(env))
    proc.interrupt()                # before the process has even started
    env.run()
    assert log == [("interrupted", 0.0), ("ok", 5.0)]
    assert proc.ok
    # The abandoned 30 s timeout was dead-marked and skipped.
    assert env.dead_skipped == 1


@pytest.mark.parametrize("reference", [False, True])
def test_attaching_callback_revives_cancelled_event(reference):
    """Cancellation is lazy, never destructive: a callback attached to an
    ``AnyOf`` loser afterwards still runs, and the pop is not counted as a
    dead skip."""
    env = make_env(reference)
    fired = []
    loser = env.timeout(2, value="v")
    env.any_of([env.timeout(1), loser])
    env.run(until=1.5)
    assert loser.dead
    loser.callbacks.append(lambda e: fired.append(e.value))
    env.run()
    assert fired == ["v"]
    assert env.dead_skipped == 0


@pytest.mark.parametrize("reference", [False, True])
def test_events_processed_counts_every_pop(reference):
    env = make_env(reference)
    for i in range(10):
        env.timeout(i)
    env.run()
    assert env.events_processed == 10
    assert env.dead_skipped == 0


def test_kernel_counters_exposed_as_metrics_views():
    env = Environment()
    env.any_of([env.timeout(4), env.timeout(3)])
    env.run()
    m = env.metrics
    assert m.value("kernel.events.processed") == float(env.events_processed)
    assert m.value("kernel.events.dead_skipped") == 1.0


@pytest.mark.parametrize("reference", [False, True])
def test_step_is_not_reentrant(reference):
    """A process may not drive the drain from inside a dispatch step:
    ``run()`` is the only drain loop, and a nested call is refused on the
    calendar kernel and on the heap oracle alike."""
    env = make_env(reference)

    def bad(env):
        yield env.timeout(1)
        env.run()

    env.process(bad(env))
    env.timeout(5)
    with pytest.raises(SimError, match="not reentrant"):
        env.run()


# ---------------------------------------------------------------------------
# Process lifetime: a finished process is freed by reference counting
# ---------------------------------------------------------------------------

@pytest.fixture
def saved_garbage():
    """``gc.garbage`` with every unreachable object the collector finds
    kept in it (``DEBUG_SAVEALL``); the debug flags and the list's previous
    content are restored afterwards."""
    flags = gc.get_debug()
    previous = gc.garbage[:]
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = previous


def _run_and_drop(reference: bool, ending: str) -> list:
    """Run processes that end one way; return what they observed. Nothing
    of the environment outlives the call except through cycles."""
    env = make_env(reference)
    seen = []

    def returns(env):
        yield env.timeout(1)
        return "done"

    def raises(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter(env, failing, then_wait):
        try:
            yield failing
        except ValueError as exc:
            seen.append(str(exc))
        if then_wait:
            yield env.timeout(1)

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt as intr:
            seen.append(intr.cause)

    def poker(env, victim):
        yield env.timeout(1)
        victim.interrupt("wake")

    def joiner(env, other):
        seen.append((yield other))

    if ending == "return":
        env.process(returns(env))
    elif ending == "raise":
        failing = env.process(raises(env))
        env.process(waiter(env, failing, False))
        env.process(waiter(env, failing, True))
    elif ending == "interrupt":
        env.process(poker(env, env.process(sleeper(env))))
    else:
        env.process(joiner(env, env.process(returns(env))))
    env.run()
    return seen


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("ending, seen", [
    ("return", []), ("raise", ["boom", "boom"]), ("interrupt", ["wake"]),
    ("join", ["done"])])
def test_finished_process_is_not_cyclic_garbage(reference, ending, seen,
                                                saved_garbage):
    """A finished process drops its generator and every reference back to
    itself, and its failure's traceback keeps neither the kernel's frame
    nor the frame of a waiter that handled it: no process is left for
    the cycle collector to find."""
    assert _run_and_drop(reference, ending) == seen
    gc.collect()
    assert [obj for obj in saved_garbage if isinstance(obj, Process)] == []


@pytest.mark.parametrize("reference", [False, True])
def test_interrupt_delivered_after_its_target_finished_is_a_noop(reference):
    """An interrupt raised while its target is alive but delivered after
    the target finished in the same instant is dropped, although the
    finished process no longer holds its generator or resume callback."""
    env = make_env(reference)
    seen = []

    def poker(env, victim):
        yield env.timeout(5)
        victim.interrupt("late")       # the victim wakes later this instant
        seen.append(victim.is_alive)

    def victim(env):
        yield env.timeout(2)
        yield env.timeout(3)           # queued behind the poker's wake-up
        return "done"

    target = env.process(victim(env))
    env.process(poker(env, target))
    env.run()
    assert seen == [True]
    assert target.ok and target.value == "done"
