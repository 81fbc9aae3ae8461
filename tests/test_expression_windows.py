"""Tests for the §4.2.1 time-series (window) extension of the rule language."""

import gc
from math import inf

import pytest

from repro.core.manifest.expressions import (
    EvaluationContext,
    ExpressionError,
    WindowOp,
    parse_expression,
)
from repro.core.service_manager.rules import RuleInterpreter
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment


def ctx_from_samples(samples):
    """An EvaluationContext over a fixed {name: [values]} table."""
    def window(name, window_s, op):
        values = samples.get(name, [])
        if not values:
            return None
        if op == "mean":
            return sum(values) / len(values)
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        return float(len(values))

    return EvaluationContext(
        latest=lambda n: samples[n][-1] if samples.get(n) else None,
        window=window,
    )


# ---------------------------------------------------------------------------
# Syntax + AST
# ---------------------------------------------------------------------------

def test_parse_window_operations():
    for op in ("mean", "min", "max", "count"):
        expr = parse_expression(f"{op}(@a.b, 300) > 1", defaults={"a.b": 0})
        assert expr.kpi_references() == {"a.b"}


def test_window_unparse_round_trip():
    expr = parse_expression("mean(@a.b, 300) + max(@a.b, 60.5)",
                            defaults={"a.b": 0})
    reparsed = parse_expression(expr.unparse(), defaults={"a.b": 0})
    ctx = ctx_from_samples({"a.b": [2.0, 4.0]})
    assert expr.evaluate(ctx) == reparsed.evaluate(ctx) == 3.0 + 4.0


def test_window_validation():
    with pytest.raises(ExpressionError):
        WindowOp("median", "a.b", 60)
    with pytest.raises(ExpressionError):
        WindowOp("mean", "a.b", 0)
    with pytest.raises(ValueError):
        WindowOp("mean", "nodots", 60)


@pytest.mark.parametrize("text", [
    "mean(@a.b)",            # missing window
    "mean(@a.b, )",          # missing number
    "mean(3, 60)",           # not a KPI ref
    "frobnicate(@a.b, 60)",  # unknown function
    "mean(@a.b 60)",         # missing comma
])
def test_window_parse_errors(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


# ---------------------------------------------------------------------------
# Evaluation semantics
# ---------------------------------------------------------------------------

def test_window_aggregations():
    ctx = ctx_from_samples({"a.b": [1.0, 5.0, 3.0]})
    assert parse_expression("mean(@a.b, 60)").evaluate(ctx) == 3.0
    assert parse_expression("min(@a.b, 60)").evaluate(ctx) == 1.0
    assert parse_expression("max(@a.b, 60)").evaluate(ctx) == 5.0
    assert parse_expression("count(@a.b, 60)").evaluate(ctx) == 3.0


def test_empty_window_count_is_zero():
    ctx = ctx_from_samples({})
    assert parse_expression("count(@a.b, 60)").evaluate(ctx) == 0.0


def test_empty_window_mean_uses_default():
    ctx = ctx_from_samples({})
    expr = parse_expression("mean(@a.b, 60)", defaults={"a.b": 7})
    assert expr.evaluate(ctx) == 7.0
    bare = parse_expression("mean(@a.b, 60)")
    with pytest.raises(ExpressionError, match="empty window"):
        bare.evaluate(ctx)


def test_plain_bindings_rejected():
    expr = parse_expression("mean(@a.b, 60) > 1", defaults={"a.b": 0})
    with pytest.raises(ExpressionError, match="EvaluationContext"):
        expr.evaluate(lambda n: 5.0)


def test_context_without_window_support_rejected():
    ctx = EvaluationContext(latest=lambda n: 5.0, window=None)
    expr = parse_expression("mean(@a.b, 60)", defaults={"a.b": 0})
    with pytest.raises(ExpressionError, match="window-capable"):
        expr.evaluate(ctx)


def test_mixing_latest_and_window_refs():
    ctx = ctx_from_samples({"a.b": [10.0, 20.0], "c.d": [2.0]})
    expr = parse_expression("(@c.d > 1) && (mean(@a.b, 300) >= 15)")
    assert expr.holds(ctx)


# ---------------------------------------------------------------------------
# Rule engine integration
# ---------------------------------------------------------------------------

def measurement(qname, value, t):
    return Measurement(qname, "svc-1", "p", t, (value,))


def test_rule_engine_window_smoothing():
    """A mean-over-window rule ignores a transient spike that a latest-value
    rule would react to — the paper's motivation: 'limit the impact of
    strong fluctuations'."""
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    calls = []
    rule = ElasticityRule.from_text(
        "smooth-up", "mean(@load.level, 100) > 50", "deployVM(x)",
        defaults={"load.level": 0})
    interp = RuleInterpreter(
        env, "svc-1", executor=lambda a, r: calls.append(env.now) or True)
    interp.install(rule)

    def drive(env):
        # One 10-second spike inside a calm window: mean stays low.
        for t, v in [(10, 5), (20, 95), (30, 5), (40, 5)]:
            yield env.timeout(t - env.now)
            interp.notify(measurement("load.level", v, env.now))
            interp.evaluate_rules()
        # Sustained load: mean over the window crosses the threshold.
        for t in (50, 60, 70):
            yield env.timeout(t - env.now)
            interp.notify(measurement("load.level", 95, env.now))
            interp.evaluate_rules()

    env.process(drive(env))
    env.run()
    assert len(calls) == 1
    assert calls[0] >= 60  # only after sustained high readings


def test_rule_engine_count_guard():
    """count() guards against deciding on too few samples."""
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    calls = []
    rule = ElasticityRule.from_text(
        "guarded", "(count(@q.size, 100) >= 3) && (mean(@q.size, 100) > 10)",
        "deployVM(x)", defaults={"q.size": 0})
    interp = RuleInterpreter(
        env, "svc-1", executor=lambda a, r: calls.append(env.now) or True)
    interp.install(rule)

    def drive(env):
        for t in (10, 20, 30):
            yield env.timeout(t - env.now)
            interp.notify(measurement("q.size", 50, env.now))
            interp.evaluate_rules()

    env.process(drive(env))
    env.run()
    # Needs three samples before acting.
    assert calls == [30.0]


def _firing_times(condition, samples, evaluate_at):
    """When a one-rule interpreter fires ``condition``, fed the ``samples``
    ({time: q.size}) and evaluated at each time of ``evaluate_at``."""
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    calls = []
    interp = RuleInterpreter(
        env, "svc-1", executor=lambda a, r: calls.append(env.now) or True)
    interp.install(ElasticityRule.from_text(
        "windowed", condition, "deployVM(x)", defaults={"q.size": 0}))

    def drive(env):
        for t in evaluate_at:
            yield env.timeout(t - env.now)
            if t in samples:
                interp.notify(measurement("q.size", samples[t], env.now))
            interp.evaluate_rules()

    env.process(drive(env))
    env.run()
    return calls


def test_rule_engine_min_floor():
    """min() acts only once every sample in the window clears the floor;
    the low sample at t=10 still counts at t=35, on the window's edge."""
    samples = {10: 5, 20: 50, 30: 50}
    assert _firing_times("min(@q.size, 25) > 10", samples,
                         (10, 20, 30, 35, 36)) == [36.0]


def test_rule_engine_max_peak():
    """max() scales down only once the window's peak is low; the spike at
    t=10 still counts at t=35, on the window's edge."""
    samples = {10: 50, 20: 5, 30: 5}
    assert _firing_times("max(@q.size, 25) < 20", samples,
                         (10, 20, 30, 35, 36)) == [36.0]


# ---------------------------------------------------------------------------
# Bounded retention: a stream is kept only as far back as a window reads
# ---------------------------------------------------------------------------

def live_samples(service_id):
    return sum(1 for obj in gc.get_objects()
               if type(obj) is Measurement and obj.service_id == service_id)


def test_window_free_rules_keep_only_the_latest_sample():
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    interp = RuleInterpreter(env, "svc-free", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text(
        "up", "@q.size > 5", "deployVM(x)", defaults={"q.size": 0}))
    for i in range(1000):
        interp.notify(Measurement("q.size", "svc-free", "p", float(i), (i,)))
    assert interp.store.value("svc-free", "q.size") == 999
    assert interp.windows.aggregate("q.size", -inf, inf, "count") == 0.0
    assert live_samples("svc-free") == 1


def test_a_window_keeps_only_the_samples_it_can_still_read():
    from repro.core.manifest.elasticity import ElasticityRule

    env = Environment()
    interp = RuleInterpreter(env, "svc-1", executor=lambda a, r: True)
    interp.install(ElasticityRule.from_text(
        "smooth-up", "mean(@q.size, 30) > 50", "deployVM(x)",
        defaults={"q.size": 0}))

    def drive(env):
        for _ in range(100):   # one sample a second, its value its time
            interp.notify(measurement("q.size", env.now, env.now))
            yield env.timeout(1)

    env.process(drive(env))
    env.run()
    # The last sample came at t=99: the window reads back to t=69 now and
    # later, so exactly t=69..99 is kept.
    kept = interp.windows
    assert kept.aggregate("q.size", -inf, inf, "count") == 31.0
    assert kept.aggregate("q.size", -inf, inf, "min") == 69.0
    assert kept.aggregate("q.size", -inf, inf, "max") == 99.0


def test_validator_replays_window_rules():
    """The enforcement validator evaluates window rules over the journal."""
    from repro.core.constraints.instruments import (
        ElasticityEnforcementValidator,
    )
    from repro.core.manifest.builder import ManifestBuilder
    from repro.monitoring.consumers import MeasurementJournal
    from repro.sim.kernel import Environment
    from repro.sim.tracing import TraceLog, TraceRecord

    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=0, minimum=0, maximum=4)
    b.kpi("C", "exec", "q.size", default=0)
    b.rule("win-up", "mean(@q.size, 100) > 10", "deployVM(exec)",
           time_constraint_ms=5000)
    manifest = b.build()

    journal = MeasurementJournal()
    for t in (10.0, 20.0, 30.0):
        journal.notify(Measurement("q.size", "svc", "p", t, (50,)))
    env = Environment()
    trace = TraceLog(env)
    trace.records.append(TraceRecord(
        12.0, "rule-engine", "elasticity.action",
        {"rule": "win-up", "service": "svc", "operation": "deployVM",
         "component_ref": "exec"}))

    validator = ElasticityEnforcementValidator(manifest, "svc", journal,
                                               trace)
    findings = validator.findings()
    assert findings, "window rule must be evaluable in the replay"
    assert findings[0].verdict == "enforced"
