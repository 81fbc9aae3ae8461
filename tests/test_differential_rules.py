"""Differential validation of the incremental/compiled rule engine.

Drives random measurement sequences through two RuleInterpreters over the
same simulated clock:

* the optimised engine (KPI-indexed incremental passes, compiled
  conditions) — the production default;
* the reference engine (``tests.oracles.rules.FullPassInterpreter``): the
  evaluate-everything tree-walking interpreter transcribed from §4.2.2.

Whatever the sequence — sparse churn, unmeasured KPIs, error rules, window
aggregations, cooldowns, refusing executors, a time-of-day condition that
flips mid-run — both engines must produce identical :class:`RuleFiring`
journals and identical per-rule statistics. The reference engine's windows
read every sample it was notified of; the optimised engine's keep only what
a window can still reach. A third evaluator, the SLA monitor given the same
conditions as objectives, must hold at every sample exactly where the
§4.2.2 tree-walk over the reference engine's bindings is ``> 0``.
Most samples repeat their stream's previous values, which the optimised
engine does not count as a change, so the streams also carry the values
where equality and the condition's float view could part: NaN, 0.0 then
-0.0, 1 then 1.0 then ``True``, and a string no condition can read.
"""

import math
import random
import zlib

import pytest

from repro.core.manifest.elasticity import ElasticityRule
from repro.core.manifest.sla import SLASection, ServiceLevelObjective
from repro.core.service_manager.rules import RuleInterpreter
from repro.core.sla import SLAMonitor
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment
from repro.sim.tracing import TraceLog
from tests.oracles.expressions import interpret
from tests.oracles.rules import FullPassInterpreter


DEFAULTS = {"k.a": 0.0, "k.b": 5.0, "k.t": 1.0}  # k.c deliberately missing
#: the runs start 150 s before 10:00, so the timed condition flips mid-run
START = 36_000.0 - 150.0


def build_rules():
    return [
        ElasticityRule.from_text(
            "plain", "@k.a > 3", "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "compound", "(@k.a / (@k.b + 1) > 0.5) && (@k.b < 12)",
            "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "error-prone", "@k.c > 2", "undeployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "windowed", "mean(@k.a, 30) > 4", "notify()", defaults=DEFAULTS),
        # a second, shorter window on k.a, and a window on a second stream
        ElasticityRule.from_text(
            "burst", "count(@k.a, 5) >= 2", "notify()", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "peak", "max(@k.b, 12) > 9", "deployVM(x)", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "timed", "(@system.time.timeofday > 36000) && (@k.t >= 1)",
            "notify()", defaults=DEFAULTS),
        ElasticityRule.from_text(
            "eager", "@k.b >= 5", "reconfigureVM(x)", defaults=DEFAULTS,
            cooldown_s=0.0),
        ElasticityRule.from_text(
            "mixed", "!(@k.a > 2) || (@k.c < 9)", "notify()",
            defaults=DEFAULTS),
        ElasticityRule.from_text(
            "constant", "1 > 0", "notify()", defaults=DEFAULTS,
            time_constraint_ms=20_000),
    ]


def make_executor(env, journal):
    """Deterministic executor: refuses roughly a third of requests, keyed on
    (rule, time, position) so both engines see the same decisions."""

    def executor(action, rule):
        key = f"{rule.name}:{env.now:.6f}:{len(journal)}".encode()
        decision = zlib.crc32(key) % 3 != 0
        journal.append((env.now, rule.name, action.operation.value, decision))
        return decision
    return executor


#: value runs a stream switches to now and then, one value per sample
EDGE_RUNS = [
    [float("nan"), float("nan")],
    [0.0, -0.0, 0.0],
    [1, 1.0, True],
    ["busy"],
]


def sample_stream(rng):
    """Next value per KPI: mostly a repeat of the previous one, sometimes a
    fresh draw, sometimes an edge run played out over the next samples."""
    last, queued = {}, {}

    def next_value(name):
        if queued.get(name):
            value = queued[name].pop(0)
        elif name in last and rng.random() < 0.7:
            value = last[name]
        elif rng.random() < 0.2:
            queued[name] = list(rng.choice(EDGE_RUNS))
            value = queued[name].pop(0)
        else:
            value = round(rng.uniform(-2.0, 15.0), 3)
        last[name] = value
        return value
    return next_value


def reference_holds(expr, bindings):
    """The §4.2.2 tree-walk's verdict; a condition it cannot evaluate
    counts as held, as an SLO sample counts it."""
    try:
        return interpret(expr, bindings) > 0
    except Exception:
        return True


def run_differential(seed, steps=120, slo_samples=None):
    """Replay one drawn stream through both engines. Given a list as
    ``slo_samples``, an SLA monitor whose objectives are the rules'
    conditions reads the same stream and is sampled at every evaluation
    step; each sample appends ``(name, held, reference verdict)``."""
    rng = random.Random(seed)
    env = Environment(initial_time=START)
    publisher = TraceLog(env)
    optimised_log, reference_log = [], []
    optimised = RuleInterpreter(
        env, "svc", executor=make_executor(env, optimised_log),
        kpi_defaults=DEFAULTS)
    reference = FullPassInterpreter(
        env, "svc", executor=make_executor(env, reference_log),
        kpi_defaults=DEFAULTS)
    for rule in build_rules():
        optimised.install(rule)
        reference.install(rule)
    monitor = SLAMonitor(env, "svc", SLASection(tuple(
        ServiceLevelObjective(rule.name, rule.trigger.expression)
        for rule in build_rules())), kpi_defaults=DEFAULTS)
    next_value = sample_stream(rng)

    def sample_slos():
        if slo_samples is None:
            return
        for slo in monitor.sla:
            held = monitor.sample(slo.name).held
            slo_samples.append((slo.name, held, reference_holds(
                slo.expression, reference.bindings)))

    def driver(env):
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.55:
                name = rng.choice(["k.a", "k.b", "k.c", "k.t", "k.unused"])
                value = next_value(name)
                # one publication span, the parent of the firings it
                # enables; each engine gets its own sample, as each decodes
                # its own packet
                with publisher.span_scope("monitoring", "kpi.publish",
                                          kpi=name):
                    for engine in (optimised, reference, monitor):
                        engine.notify(Measurement(name, "svc", "probe-1",
                                                  env.now, (value,)))
            else:
                assert optimised.evaluate_rules() == reference.evaluate_rules()
                sample_slos()
            yield env.timeout(rng.choice([0.0, 0.5, 1.5, 4.0, 7.0]))
        assert optimised.evaluate_rules() == reference.evaluate_rules()
        sample_slos()

    env.process(driver(env))
    env.run()
    return optimised, reference, optimised_log, reference_log


def trace_view(trace):
    """A trace with its own span ids replaced by their order of opening
    (the two engines draw ids from one counter); a parent outside the
    trace, a publication span, keeps its id."""
    order = {span_id: i for i, span_id in enumerate(trace.spans)}
    spans = [(s.source, s.kind, s.start, s.end, s.status, s.details,
              order.get(s.parent_id, s.parent_id))
             for s in trace.spans.values()]
    records = [(r.time, r.source, r.kind, r.details,
                order.get(r.span_id, r.span_id)) for r in trace.records]
    return spans, records


@pytest.mark.parametrize("seed", range(8))
def test_firing_journals_identical(seed):
    optimised, reference, opt_log, ref_log = run_differential(seed)
    assert optimised.firings == reference.firings
    assert opt_log == ref_log
    opt_stats = optimised.stats()
    ref_stats = reference.stats()
    for name in ref_stats:
        for key in ("firings", "suppressed", "last_fired"):
            assert opt_stats[name][key] == ref_stats[name][key], (name, key)


@pytest.mark.parametrize("seed", range(8))
def test_traces_and_stats_identical(seed):
    optimised, reference, _, _ = run_differential(seed)
    assert optimised.stats() == reference.stats()
    assert trace_view(optimised.trace) == trace_view(reference.trace)


@pytest.mark.parametrize("seed", range(8))
def test_sla_monitor_holds_where_the_reference_does(seed):
    samples = []
    run_differential(seed, slo_samples=samples)
    assert samples
    for name, held, expected in samples:
        assert held == expected, name


def test_sla_differential_sees_every_verdict():
    """The SLO differential is meaningful only if the time, window and
    plain conditions each both hold and fail along the way."""
    verdicts = {}
    for seed in range(8):
        samples = []
        run_differential(seed, slo_samples=samples)
        for name, held, _ in samples:
            verdicts.setdefault(name, set()).add(held)
    for name in ("timed", "windowed", "burst", "peak", "plain",
                 "error-prone"):
        assert verdicts[name] == {True, False}, name


def test_differential_streams_repeat_and_reach_the_edges():
    """The streams exercise what they claim to: repeats that dirty nothing,
    firings that parent under a publication, errors, and every edge run."""
    seen = {kind: 0 for kind in ("nan", "signed-zero", "bool", "string")}
    followers = repeats = firings = errors = 0
    for seed in range(8):
        optimised, reference, _, _ = run_differential(seed)
        last = {}
        for m in reference.journal:
            if m.qualified_name in last:
                followers += 1
                repeats += last[m.qualified_name] == m.values
            last[m.qualified_name] = m.values
            v = m.value
            if isinstance(v, float) and math.isnan(v):
                seen["nan"] += 1
            elif v == 0.0 and math.copysign(1.0, v) < 0:
                seen["signed-zero"] += 1
            elif v is True:
                seen["bool"] += 1
            elif isinstance(v, str):
                seen["string"] += 1
        spans = optimised.trace.find_spans(kind="rule.firing")
        firings += sum(s.parent_id is not None for s in spans)
        errors += len(optimised.trace.query(kind="rule.error"))
    assert all(seen.values()), seen
    assert repeats > followers / 2   # most samples repeat their predecessor
    assert firings > 0 and errors > 0


def test_optimised_windows_drop_what_no_window_reaches():
    """The windowed rules are checked against the whole stream only if the
    optimised engine dropped samples the oracle kept: both windowed
    streams lose some on every seed, and the unwindowed ones keep none."""
    for seed in range(8):
        optimised, reference, _, _ = run_differential(seed)
        for name in ("k.a", "k.b"):
            kept = optimised.bindings.windows.aggregate(
                name, -math.inf, math.inf, "count")
            seen = len(reference.journal.stream("svc", name))
            assert 0 < kept < seen, (seed, name, kept, seen)
        for name in ("k.c", "k.t", "k.unused"):
            assert optimised.bindings.windows.aggregate(
                name, -math.inf, math.inf, "count") == 0.0


def test_incremental_engine_actually_skips():
    """The differential harness is only meaningful if the optimised engine
    takes the incremental path — prove it skipped work."""
    optimised, reference, _, _ = run_differential(seed=3)
    assert optimised.rules_skipped > 0
    assert optimised.rules_evaluated < reference.rules_evaluated
    assert reference.rules_skipped == 0


def test_sparse_churn_evaluates_only_dirty_rules():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    n = 50
    for i in range(n):
        interp.install(ElasticityRule.from_text(
            f"rule-{i}", f"@kpi.s{i} > 5", "notify()",
            defaults={f"kpi.s{i}": 0.0}))
    interp.evaluate_rules()   # settle: fresh rules all evaluate once
    assert interp.last_pass["evaluated"] == n

    interp.evaluate_rules()   # nothing dirty, nothing hot → nothing to do
    assert interp.last_pass["evaluated"] == 0
    assert interp.last_pass["skipped"] == n

    interp.notify(Measurement("kpi.s7", "svc", "p", 0.0, (10,)))
    interp.evaluate_rules()   # exactly the one dirty rule re-evaluated
    assert interp.last_pass["dirty_kpis"] == 1
    assert interp.last_pass["evaluated"] == 1

    # Its condition now holds (executor refuses) → stays hot next pass.
    interp.evaluate_rules()
    assert interp.last_pass["evaluated"] == 1


def test_only_a_changed_value_dirties_its_kpi():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: False)
    interp.install(ElasticityRule.from_text(
        "up", "@a.b > 5", "notify()", defaults={"a.b": 0.0}))
    interp.notify(Measurement("a.b", "svc", "p", 0.0, (3,)))
    interp.evaluate_rules()   # the first sample dirties, the rule goes cold
    assert interp.last_pass["dirty_kpis"] == 1
    for value in (3, 3.0):    # equal values, each a new sample
        interp.notify(Measurement("a.b", "svc", "p", 1.0, (value,)))
        interp.evaluate_rules()
        assert interp.last_pass["dirty_kpis"] == 0
        assert interp.last_pass["evaluated"] == 0
    interp.notify(Measurement("a.b", "svc", "p", 2.0, (4,)))
    interp.evaluate_rules()
    assert interp.last_pass["dirty_kpis"] == 1
    assert interp.last_pass["evaluated"] == 1
    # The store holds the last sample; no window reads the stream, so the
    # engine keeps nothing else of it.
    assert interp.bindings.store.value("svc", "a.b") == 4
    assert interp.bindings.windows.aggregate("a.b", -math.inf, math.inf,
                                    "count") == 0.0


def test_refused_rule_is_still_evaluated_on_a_repeat():
    env = Environment()
    refusals = []

    def refuse(action, rule):
        refusals.append(env.now)
        return False

    interp = RuleInterpreter(env, "svc", executor=refuse)
    interp.install(ElasticityRule.from_text(
        "up", "@a.b > 5", "deployVM(x)", defaults={"a.b": 0.0}))
    for _ in range(3):
        interp.notify(Measurement("a.b", "svc", "p", 0.0, (9,)))
        interp.evaluate_rules()
        assert interp.last_pass["evaluated"] == 1
    assert interp.last_pass["dirty_kpis"] == 0
    assert len(refusals) == 3


def test_firing_after_cooldown_parents_under_the_latest_publication():
    env = Environment()
    publisher = TraceLog(env)
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text(
        "up", "@a.b > 4", "deployVM(x)", defaults={"a.b": 0},
        time_constraint_ms=5000))
    publications = []

    def drive(env):
        for _ in range(7):   # the same value every second
            with publisher.span_scope("monitoring", "kpi.publish") as span:
                interp.notify(Measurement("a.b", "svc", "p", env.now, (10,)))
            publications.append(span)
            interp.evaluate_rules()
            yield env.timeout(1)

    env.process(drive(env))
    env.run()
    firings = interp.trace.find_spans(kind="rule.firing")
    assert [f.start for f in firings] == [0.0, 5.0]
    assert firings[0].parent_id == publications[0].span_id
    assert firings[1].parent_id == publications[5].span_id


def test_sustained_condition_refires_after_cooldown_without_new_events():
    env = Environment()
    calls = []

    def executor(action, rule):
        calls.append(env.now)
        return True

    interp = RuleInterpreter(env, "svc", executor=executor)
    interp.install(ElasticityRule.from_text(
        "up", "@a.b > 4", "deployVM(x)", defaults={"a.b": 0},
        time_constraint_ms=5000))
    interp.notify(Measurement("a.b", "svc", "p", 0.0, (10,)))

    def drive(env):
        interp.evaluate_rules()          # fires at t=0
        yield env.timeout(6)
        interp.evaluate_rules()          # no new measurement, must re-fire
    env.process(drive(env))
    env.run()
    assert calls == [0.0, 6.0]


def test_error_rule_keeps_tracing_each_pass():
    env = Environment()
    interp = RuleInterpreter(env, "svc", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text("bad", "@no.default > 1",
                                            "notify()"))
    interp.evaluate_rules()
    interp.evaluate_rules()
    errors = [r for r in interp.trace.records if r.kind == "rule.error"]
    assert len(errors) == 2
