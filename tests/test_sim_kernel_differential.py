"""Differential tests: timer-wheel kernel vs the heap oracle kernel.

The calendar-queue kernel (`Environment()`) must be *observationally
identical* to the reference heap kernel (`tests.oracles.kernel`):
same event orderings, same clock, same final states, same event counts —
byte-identical logs on any seeded workload. So must its drain with a
profiling hook installed (`Environment.profile`). These tests run
randomized process mixes (timeouts, zero-delay cascades, AnyOf/AllOf races
with abandoned losers, interrupts, hand-off waits) through all three and
compare serialized transcripts.
"""

import json
import random
from collections import deque

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.kernel import AllOf, AnyOf, Environment, Interrupt  # noqa: E402
from tests.oracles.kernel import HeapEnvironment  # noqa: E402

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5, 7.0)
KERNELS = ("calendar", "profiled", "reference")


def _run_mix(seed: int, n_workers: int, *, kernel: str) -> str:
    """One seeded multi-process scenario on ``kernel`` (one of
    :data:`KERNELS`); returns a serialized transcript of everything
    observable (event order, clock, counters, final state)."""
    env = HeapEnvironment() if kernel == "reference" else Environment()
    hooked: list = []
    if kernel == "profiled":
        env.profile(lambda event, callbacks, wall_s: hooked.append(event))
    log: list = []
    # Hand-off FIFO: op 3 parks a fresh event here, op 4 succeeds the
    # oldest one.
    parked: deque = deque()
    gates = [env.event() for _ in range(3)]
    procs: list = []

    def worker(wid: int, wseed: int):
        wrng = random.Random(wseed)
        for step in range(wrng.randrange(3, 7)):
            try:
                op = wrng.randrange(7)
                if op == 0:
                    delay = wrng.choice(DELAYS)
                    yield env.timeout(delay)
                    log.append((env.now, wid, f"timeout:{delay}"))
                elif op == 1:
                    # AnyOf race: the losers stay queued (lazy cancellation).
                    races = [env.timeout(wrng.choice((1.0, 2.0, 3.0)),
                                         value=f"r{i}") for i in range(3)]
                    fired = yield AnyOf(env, races)
                    log.append((env.now, wid,
                                f"any:{sorted(map(str, fired.values()))}"))
                elif op == 2:
                    pair = [env.timeout(wrng.choice((0.0, 1.0, 2.0)))
                            for _ in range(2)]
                    yield AllOf(env, pair)
                    log.append((env.now, wid, "all"))
                elif op == 3:
                    handoff = env.event()
                    parked.append(handoff)
                    got = yield AnyOf(env, [handoff, env.timeout(2.0)])
                    log.append((env.now, wid,
                                f"handoff:{sorted(map(str, got.values()))}"))
                elif op == 4:
                    if parked:
                        parked.popleft().succeed((wid, step))
                        log.append((env.now, wid, "handed"))
                    yield env.timeout(wrng.choice((0.0, 0.5)))
                else:
                    # op 5: poke another worker; op 6: gate signal/wait.
                    if op == 5:
                        idx = wrng.randrange(n_workers)
                        if (idx != wid and idx < len(procs)
                                and procs[idx].is_alive):
                            procs[idx].interrupt(cause=wid)
                            log.append((env.now, wid, f"interrupted:{idx}"))
                        yield env.timeout(0.5)
                    else:
                        gate = gates[wrng.randrange(3)]
                        if not gate.triggered and wrng.random() < 0.5:
                            gate.succeed(wid)
                            yield env.timeout(0)
                            log.append((env.now, wid, "signalled"))
                        else:
                            fired = yield AnyOf(env,
                                                [gate, env.timeout(3.0)])
                            log.append((env.now, wid,
                                        f"gated:{len(fired)}"))
            except Interrupt as intr:
                log.append((env.now, wid, f"interrupt-from:{intr.cause}"))
        log.append((env.now, wid, "done"))

    rng = random.Random(seed)
    for wid in range(n_workers):
        procs.append(env.process(worker(wid, rng.randrange(2**31)),
                                 name=f"w{wid}"))
    env.run(until=500.0)
    if kernel == "profiled":
        # the hook sees every dispatch, dead skips included
        assert len(hooked) == env.events_processed
    return json.dumps({
        "now": env.now,
        "events": env.events_processed,
        "dead_skipped": env.dead_skipped,
        "parked": len(parked),
        "log": log,
    })


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_workers=st.integers(2, 12))
def test_wheel_matches_heap_on_random_mixes(seed, n_workers):
    """Byte-identical transcripts on randomized seeded process mixes."""
    calendar, profiled, reference = (_run_mix(seed, n_workers, kernel=k)
                                     for k in KERNELS)
    assert calendar == profiled == reference


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2010, 99991])
def test_wheel_matches_heap_on_pinned_seeds(seed):
    """A fast pinned-seed subset that runs even without randomization."""
    calendar, profiled, reference = (_run_mix(seed, 8, kernel=k)
                                     for k in KERNELS)
    assert calendar == profiled == reference


def test_wheel_matches_heap_replays_itself():
    """Each kernel is also self-deterministic across repeat runs."""
    for kernel in KERNELS:
        assert (_run_mix(1234, 6, kernel=kernel)
                == _run_mix(1234, 6, kernel=kernel))
