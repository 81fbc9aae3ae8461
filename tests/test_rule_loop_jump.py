"""The evaluation loop jumps idle ticks: differential test and cost bound.

``RuleInterpreter._evaluation_loop`` runs a pass only at the grid ticks
that can observe something; the idle ticks before the kernel's
``quiet_until`` (and before the next cooldown lapse) are charged to the
pass counters without waking up. ``TickingInterpreter`` keeps the loop
that wakes on every tick and runs the full candidate pass there.

Two environments replay the same random script: notifies from processes
and between runs, on and off the rule grid and at instants other
processes share; installs; uninstalls, each a rebuild (the interpreter
stops and a fresh one of the same class takes over, holding the rules
still installed and re-notified with each KPI's latest sample);
``stop()`` and ``start()``; ``run(until=...)`` boundaries on and off the
grid; cooldowns, periodic rules, erroring rules and a refusing executor.
Everything observable must agree, on both kernels and on the profiled
drain.
"""

import random
import zlib
from math import inf

import pytest

from repro.core.manifest.elasticity import ElasticityRule
from repro.core.service_manager.rules import RuleInterpreter
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment, Interrupt
from repro.sim.tracing import TraceLog
from tests.oracles.kernel import HeapEnvironment


class TickingInterpreter(RuleInterpreter):
    """The loop that wakes on every tick of its period and runs a full
    candidate pass there, idle or not."""

    def _due(self) -> float:
        return -inf     # never idle: evaluate_rules always builds its pass

    def _evaluation_loop(self):
        try:
            while True:
                yield self.env.timeout(self._period)
                self.evaluate_rules()
        except Interrupt:
            pass


DEFAULTS = {"k.a": 0.0, "k.b": 5.0}   # k.c has none: its rule errors


def catalogue() -> list[ElasticityRule]:
    """Periods 1, 1.5, 2.5, 3, 3.5, 4 and 5 s; cooldowns on and off the
    grids; two periodic rules and one that errors until k.c arrives."""
    return [
        ElasticityRule.from_text(
            "plain", "@k.a > 3", "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "slow", "@k.b > 8", "undeployVM(x)", defaults=DEFAULTS,
            time_constraint_ms=10_000, cooldown_s=17.3),
        ElasticityRule.from_text(
            "tight", "(@k.a > 1) && (@k.b < 6)", "deployVM(x)",
            defaults=DEFAULTS, time_constraint_ms=2_000),
        ElasticityRule.from_text(
            "eager", "@k.b >= 7", "reconfigureVM(x)", defaults=DEFAULTS,
            time_constraint_ms=3_000, cooldown_s=0.0),
        ElasticityRule.from_text(
            "error-prone", "@k.c > 2", "notify()", defaults=DEFAULTS,
            time_constraint_ms=6_000),
        ElasticityRule.from_text(
            "windowed", "mean(@k.a, 20) > 4", "notify()", defaults=DEFAULTS,
            time_constraint_ms=8_000),
        ElasticityRule.from_text(
            "timed", "@system.time.now > 90", "notify()", defaults=DEFAULTS,
            time_constraint_ms=7_000, cooldown_s=11.0),
    ]


N_RULES = len(catalogue())
KPIS = ("k.a", "k.a", "k.b", "k.c", "k.unused")
#: waits between a process's wake-ups, on the rule grids and off them
DELAYS = (0.0, 0.5, 1.0, 1.5, 2.5, 2.5, 5.0, 7.5, 10.0, 20.0,
          0.3, 0.7, 1.3, 4.1, 12.6)
PROBE_PERIODS = (1.5, 2.0, 2.0, 3.0, 4.5, 7.5)
#: steps between run(until=...) boundaries, on the grids and off them
RUN_STEPS = (0.5, 1.0, 2.5, 5.0, 12.5, 30.0, 0.3, 3.7, 17.9)


#: KPI values under which no rule holds and none errors
CALM = (("k.a", 0.0), ("k.b", 5.0), ("k.c", 0.0))


def draw_action(rng: random.Random, pool: tuple) -> tuple:
    roll = rng.random()
    if roll < 0.4:
        return ("notify", rng.choice(KPIS), round(rng.uniform(-2, 12), 2))
    if roll < 0.52:
        return ("install", rng.choice(pool))
    if roll < 0.7:
        return ("uninstall", rng.choice(pool))
    if roll < 0.76:
        return ("stop",)
    if roll < 0.86:
        return ("start",)
    if roll < 0.93:
        return ("calm",)
    return ("wake",)


def draw_script(seed: int) -> tuple:
    rng = random.Random(seed)
    # Half the scripts use every rule; the other half only the two plain
    # KPI rules (periods 2.5 and 5 s), whose idle stretches are long.
    pool = tuple(range(N_RULES)) if rng.random() < 0.5 else (0, 1)
    initial = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    processes = [
        [(rng.choice(DELAYS), draw_action(rng, pool))
         for _ in range(rng.randint(3, 25))]
        for _ in range(rng.randint(1, 3))
    ]
    # Probes: a fixed period of their own, so their reports keep meeting
    # the rule ticks at shared instants, queued before or after the tick.
    for _ in range(rng.randint(1, 2)):
        period = rng.choice(PROBE_PERIODS)
        steps = [(rng.choice((0.0, 0.5, 1.3)), ("wake",))]
        steps += [(period, ("notify", rng.choice(KPIS),
                            round(rng.uniform(-2, 12), 2)))
                  for _ in range(rng.randint(5, 30))]
        processes.append(steps)
    runs = []
    t = 0.0
    for _ in range(rng.randint(3, 10)):
        t += rng.choice(RUN_STEPS)
        runs.append((t, [draw_action(rng, pool)
                         for _ in range(rng.randint(0, 3))]))
    # A long calm tail: cooldowns lapse and the rules go idle.
    runs[-1][1].extend([("calm",), ("uninstall", 5), ("uninstall", 6),
                        ("start",)])
    runs.append((t + 150.0, []))
    refusals = rng.random() < 0.5
    return initial, processes, runs, refusals


class Engine:
    """The interpreter a replay drives, and the ones its uninstalls
    retired: an uninstall stops the interpreter and continues with a fresh
    one of the same class, on the same trace, holding the rules still
    installed and re-notified with each KPI's latest sample."""

    def __init__(self, cls: type, env, executor):
        self.cls, self.env, self.executor = cls, env, executor
        self.trace = TraceLog(env)
        self.latest: dict[str, Measurement] = {}
        self.running = False
        self.retired: list[RuleInterpreter] = []
        self.interp = self.fresh()

    def fresh(self) -> RuleInterpreter:
        return self.cls(self.env, "svc", executor=self.executor,
                        trace=self.trace, kpi_defaults=DEFAULTS)

    @property
    def all(self) -> list[RuleInterpreter]:
        return [*self.retired, self.interp]

    def total(self, counter: str) -> int:
        return sum(getattr(interp, counter) for interp in self.all)

    def notify(self, name: str, value: float) -> None:
        sample = Measurement(name, "svc", "probe", self.env.now, (value,))
        self.latest[name] = sample
        self.interp.notify(sample)

    def uninstall(self, name: str) -> None:
        old = self.interp
        old.stop()
        self.retired.append(old)
        self.interp = self.fresh()
        for rule in old.rules:
            if rule.name != name:
                self.interp.install(rule)
        for sample in self.latest.values():
            self.interp.notify(sample)
        if self.running:
            self.interp.start()

    def start(self) -> None:
        self.running = True
        self.interp.start()

    def stop(self) -> None:
        self.running = False
        self.interp.stop()


def apply(engine: Engine, rules: list, action: tuple) -> None:
    kind = action[0]
    installed = {rule.name for rule in engine.interp.rules}
    if kind == "notify":
        engine.notify(action[1], action[2])
    elif kind == "calm":
        for name, value in CALM:
            engine.notify(name, value)
    elif kind == "install" and rules[action[1]].name not in installed:
        engine.interp.install(rules[action[1]])
    elif kind == "uninstall" and rules[action[1]].name in installed:
        engine.uninstall(rules[action[1]].name)
    elif kind == "stop":
        engine.stop()
    elif kind == "start":
        engine.start()


def replay(script: tuple, cls: type, kernel: str) -> dict:
    env = HeapEnvironment() if kernel == "reference" else Environment()
    if kernel == "profiled":
        env.profile(lambda event, callbacks, wall_s: None)
    log = []

    initial, processes, runs, refusals = script

    def executor(action, rule):
        key = f"{rule.name}:{env.now!r}:{len(log)}".encode()
        decision = not refusals or zlib.crc32(key) % 3 != 0
        log.append(("exec", env.now, rule.name, action.operation.value,
                    decision))
        return decision

    engine = Engine(cls, env, executor)
    rules = catalogue()
    for index in initial:
        engine.interp.install(rules[index])
    engine.start()

    def process(pid, steps):
        for delay, action in steps:
            yield env.timeout(delay)
            log.append(("wake", pid, env.now))
            apply(engine, rules, action)

    for pid, steps in enumerate(processes):
        env.process(process(pid, steps))
    boundaries = []
    jumped = []
    for until, between in runs:
        env.run(until=until)
        boundaries.append((env.now, engine.total("evaluations"),
                           engine.total("rules_skipped"),
                           engine.total("rules_evaluated"),
                           dict(engine.interp.last_pass)))
        jumped.append(engine.total("ticks_jumped"))
        for action in between:
            log.append(("between", env.now, action))
            apply(engine, rules, action)
    engine.stop()
    env.run(until=env.now + 60.0)
    return {
        "log": log,
        "firings": [f for interp in engine.all for f in interp.firings],
        "boundaries": boundaries,
        "trace": [(r.time, r.kind, r.details.get("rule"))
                  for r in engine.trace.records],
        "stats": [interp.stats() for interp in engine.all],
        "dead_skipped": env.dead_skipped,
        "events": env.events_processed,
        "ticks_jumped": engine.total("ticks_jumped"),
        "jumped_before_tail": jumped[-2],
        "rebuilds": len(engine.retired),
    }


SEEDS = range(40)
KERNELS = ("calendar", "profiled", "reference")


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_jumping_loop_matches_ticking_loop(seed, kernel):
    script = draw_script(seed)
    ticking = replay(script, TickingInterpreter, kernel)
    jumping = replay(script, RuleInterpreter, kernel)
    assert ticking["ticks_jumped"] == 0
    for key in ("log", "firings", "boundaries", "trace", "stats",
                "dead_skipped"):
        assert jumping[key] == ticking[key], key


@pytest.mark.parametrize("kernel", KERNELS)
def test_differential_script_exercises_the_jump(kernel):
    """The differential is only meaningful if the loop took the jump, also
    while other processes were still acting, and if the scripts fired
    rules and errored along the way."""
    jumped = fewer_events = mid_script = fired = errored = rebuilt = 0
    for seed in SEEDS:
        script = draw_script(seed)
        ticking = replay(script, TickingInterpreter, kernel)
        jumping = replay(script, RuleInterpreter, kernel)
        jumped += jumping["ticks_jumped"] > 0
        fewer_events += jumping["events"] < ticking["events"]
        mid_script += jumping["jumped_before_tail"] > 0
        fired += bool(jumping["firings"])
        errored += any(kind == "rule.error"
                       for _, kind, _ in jumping["trace"])
        rebuilt += jumping["rebuilds"] > 0
    assert jumped == fewer_events >= len(SEEDS) * 3 // 4
    assert mid_script >= len(SEEDS) // 4
    assert fired >= len(SEEDS) // 2 and errored >= len(SEEDS) // 8
    assert rebuilt >= len(SEEDS) // 2


def probe_run(cls: type, kernel: str, period: float, offset: float,
              seed: int) -> tuple:
    """The plain 2.5 s rule and a probe with a shorter period of its own:
    at the instants they share, the probe's report was queued after the
    ticking loop's timeout, so that tick runs before the report."""
    env = HeapEnvironment() if kernel == "reference" else Environment()
    calls = []

    def executor(action, rule):
        calls.append(env.now)
        return True

    interp = cls(env, "svc", executor=executor, kpi_defaults=DEFAULTS)
    interp.install(catalogue()[0])
    interp.start()
    rng = random.Random(seed)

    def probe(env):
        yield env.timeout(offset)
        for _ in range(80):
            yield env.timeout(period)
            interp.notify(Measurement("k.a", "svc", "probe", env.now,
                                      (round(rng.uniform(-2, 12), 2),)))

    env.process(probe(env))
    env.run(until=400.0)
    return calls, interp.evaluations, interp.ticks_jumped


@pytest.mark.parametrize("kernel", ("calendar", "reference"))
@pytest.mark.parametrize("period,offset", [(1.5, 0.0), (1.5, 0.5),
                                           (2.0, 0.0), (2.0, 0.5)])
def test_probe_ties_match_ticking_loop(kernel, period, offset):
    """Waking the loop at the next report instead of bounding the jump by
    ``quiet_until`` would run the shared-instant pass after the report,
    one tick early."""
    for seed in range(5):
        ticking = probe_run(TickingInterpreter, kernel, period, offset, seed)
        jumping = probe_run(RuleInterpreter, kernel, period, offset, seed)
        assert jumping[:2] == ticking[:2]
        assert jumping[2] > 0


def tick_point_run(cls: type) -> tuple:
    env = Environment()
    calls = []
    interp = cls(env, "svc",
                 executor=lambda a, r: calls.append(env.now) or True)
    # A 600 ms time constraint gives the 0.3 s period.
    interp.install(ElasticityRule.from_text(
        "up", "@k.a > 3", "deployVM(x)", defaults={"k.a": 0.0},
        time_constraint_ms=600, cooldown_s=5.0))
    interp.start()

    def wake(env):
        yield env.timeout(0.45)     # the pass at 0.3 cannot jump past 0.45

    env.process(wake(env))
    env.run(until=1.75)
    interp.notify(Measurement("k.a", "svc", "p", env.now, (10.0,)))
    env.run(until=3.0)
    return calls, interp.evaluations, interp.ticks_jumped


def test_grid_point_not_one_delay_away_is_ticked_to():
    """Six additions of 0.3 give a g6 with 0.6 + (g6 - 0.6) != g6, so
    the jump from the pass at 0.6 to g6 falls back to a plain tick (the
    pass at 0.9 then jumps), and the rule still fires at exactly g6."""
    g6 = 0.0
    for _ in range(6):
        g6 += 0.3
    assert 0.6 + (g6 - 0.6) != g6
    calls, evaluations, jumped = tick_point_run(RuleInterpreter)
    assert (calls, evaluations) == tick_point_run(TickingInterpreter)[:2]
    # Passes run at 0.3, 0.6 (its jump falls back), 0.9 and g6.
    assert calls == [g6] and evaluations - jumped == 4


def test_report_queued_after_the_tick_waits_for_the_next_tick():
    """The report due at 5.0 was queued at 4.0, after the tick due then:
    the pass at 5.0 runs first, so the rule fires at 7.5."""
    def calls(cls):
        env = Environment()
        fired = []
        interp = cls(env, "svc",
                     executor=lambda a, r: fired.append(env.now) or True)
        interp.install(ElasticityRule.from_text(
            "up", "@k.a > 3", "deployVM(x)", defaults={"k.a": 0.0}))
        interp.start()

        def probe(env):
            yield env.timeout(4.0)
            yield env.timeout(1.0)    # due at 5.0, queued after the tick
            interp.notify(Measurement("k.a", "svc", "p", env.now, (10.0,)))

        env.process(probe(env))
        env.run(until=20.0)
        return fired

    assert calls(RuleInterpreter) == calls(TickingInterpreter) == [
        7.5, 12.5, 17.5]


def sustained_rule_run(cls: type) -> RuleInterpreter:
    env = Environment()
    interp = cls(env, "svc", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text(
        "up", "@k.a > 3", "deployVM(x)", defaults={"k.a": 0.0}))
    interp.install(ElasticityRule.from_text(
        "other", "@k.b > 3", "deployVM(x)", defaults={"k.b": 0.0}))
    interp.notify(Measurement("k.a", "svc", "p", 0.0, (10.0,)))
    interp.start()
    env.run(until=3.0)
    env.run(until=100.0)
    return interp


def test_jump_charges_idle_passes_like_ticks():
    """A held condition re-fires at each cooldown lapse; the ticks inside
    each cooldown are jumped and leave the counters the passes leave."""
    jumping = sustained_rule_run(RuleInterpreter)
    ticking = sustained_rule_run(TickingInterpreter)
    assert [f.time for f in jumping.firings] == [2.5 + 5.0 * k
                                                 for k in range(20)]
    # The tick at 5.0 is run: the stop at 3.0 bounds the first jump.
    # After that, every tick inside a cooldown (10.0 ... 95.0) is jumped;
    # the tick at 100.0 is the stop time, so it runs.
    assert jumping.ticks_jumped == 18
    assert jumping.evaluations == ticking.evaluations == 40
    assert jumping.rules_skipped == ticking.rules_skipped
    assert jumping.rules_evaluated == ticking.rules_evaluated
    assert jumping.last_pass == ticking.last_pass == {
        "installed": 2, "candidates": 1, "evaluated": 0,
        "cooldown_skipped": 1, "skipped": 1, "dirty_kpis": 0}
    assert jumping.env.metrics.value("core.rules.ticks_jumped",
                                     service="svc") == 18


def reported_day(cls: type) -> tuple[Environment, RuleInterpreter, list]:
    """One rule and one KPI reported every 30 s, for a simulated day."""
    env = Environment()
    calls = []

    def executor(action, rule):
        calls.append(env.now)
        return True

    interp = cls(env, "svc", executor=executor)
    interp.install(ElasticityRule.from_text(
        "up", "@k.a > 9", "deployVM(x)", defaults={"k.a": 0.0}))
    rng = random.Random(0)

    def probe(env):
        while True:
            yield env.timeout(30.0)
            interp.notify(Measurement("k.a", "svc", "probe", env.now,
                                      (rng.uniform(0.0, 10.0),)))

    env.process(probe(env))
    interp.start()
    env.run(until=86_400.0)
    return env, interp, calls


def test_idle_day_costs_reports_not_ticks():
    """The kernel pays for the 2,880 reports, not for the 34,560 ticks of
    the rule's 2.5 s period; every tick is still counted as a pass, and
    the rule fires exactly when the ticking loop fires it."""
    env, interp, calls = reported_day(RuleInterpreter)
    ticking_env, ticking, ticking_calls = reported_day(TickingInterpreter)
    assert interp.eval_period_s == 2.5
    assert interp.evaluations == ticking.evaluations == 34_560
    assert calls == ticking_calls and len(calls) > 100
    assert ticking_env.events_processed > 34_560
    assert env.events_processed <= 3 * 2_880
