"""Tests for the observability layer: spans, metrics, exporters, auditor.

Covers the span lifecycle semantics (nesting, out-of-order close rejection,
orphan detection), the flat-``emit()`` backward-compatibility guarantee, the
indexed-vs-linear TraceLog query equivalence, the unified metrics registry,
the exporters, and the end-to-end causal chain from a KPI publication down
to the VEE it caused — including the §4.2.3 time-constraint audit.
"""

import json
import random

import pytest

from repro.obs.audit import TimeConstraintAuditor
from repro.obs.exporters import (
    chrome_trace,
    export_jsonl,
    prometheus_text,
    render_span_tree,
)
from repro.obs.metrics import Counter, Histogram, MetricError, MetricsRegistry
from repro.obs.spans import SpanError
from repro.sim.kernel import Environment
from repro.sim.tracing import TimeSeries, TraceLog


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    c = reg.counter("layer.comp.events")
    c.inc()
    c.inc(2)
    assert c.value == 3
    with pytest.raises(MetricError):
        c.inc(-1)

    h = reg.histogram("layer.comp.latency_s")
    for v in (3.0, 1.0, 2.0, 4.0, 5.0):
        h.observe(v)
    assert h.count == 5
    assert h.percentile(0.5) == 3.0
    assert h.percentile(1.0) == 5.0
    summary = h.summary()
    assert summary["min"] == 1.0 and summary["max"] == 5.0
    assert summary["p99"] == 5.0
    with pytest.raises(MetricError):
        h.observe(float("nan"))


def test_histogram_percentile_edge_cases():
    h = Histogram("layer.comp.latency_s")
    # empty: quantiles are None, summary is the zero shape
    assert h.percentile(0.0) is None and h.percentile(1.0) is None
    assert h.mean is None
    assert h.summary() == {"count": 0, "sum": 0.0, "min": None, "max": None,
                           "p50": None, "p95": None, "p99": None}
    with pytest.raises(MetricError):
        h.percentile(1.5)
    with pytest.raises(MetricError):
        h.percentile(-0.1)
    # single sample: every quantile is that sample
    h.observe(7.0)
    assert h.percentile(0.0) == 7.0
    assert h.percentile(0.5) == 7.0
    assert h.percentile(1.0) == 7.0
    assert h.summary()["min"] == h.summary()["max"] == 7.0
    # q=0 clamps to the first rank, q=1 to the last
    h.observe(1.0)
    assert h.percentile(0.0) == 1.0
    assert h.percentile(1.0) == 7.0


def test_histogram_quantiles_exact_after_unsorted_merge():
    """A merged tail arrives in the remote arrival order; quantile reads
    must re-sort lazily instead of trusting a stale sorted cache."""
    h = Histogram("layer.comp.latency_s")
    h.observe(5.0)
    assert h.percentile(0.5) == 5.0      # builds the sorted cache
    h.merge((1.0, 9.0, 3.0))             # unsorted tail invalidates it
    assert h._values == [5.0, 1.0, 9.0, 3.0]
    assert h.percentile(0.5) == 3.0
    assert h.percentile(1.0) == 9.0
    assert h.summary()["min"] == 1.0 and h.summary()["max"] == 9.0
    assert h.sum == 18.0
    h.merge(())                          # empty merge: no-op
    assert h.count == 4


def test_metric_name_validation():
    reg = MetricsRegistry()
    for bad in ("flat", "two.segments", "Upper.case.name", "a.b.c-d"):
        with pytest.raises(MetricError):
            reg.counter(bad)
    assert isinstance(reg.counter("a.b.c"), Counter)


def test_registry_get_or_create_shares_and_checks_kind():
    reg = MetricsRegistry()
    a = reg.counter("x.y.z", service="s1")
    b = reg.counter("x.y.z", service="s1")
    other = reg.counter("x.y.z", service="s2")
    assert a is b and a is not other
    with pytest.raises(MetricError):
        reg.histogram("x.y.z", service="s1")


def test_registry_views_replace_but_never_shadow_owned():
    reg = MetricsRegistry()
    reg.register_view("a.b.view", lambda: 1)
    reg.register_view("a.b.view", lambda: 2)   # replace is fine
    assert reg.value("a.b.view") == 2
    reg.counter("a.b.owned").inc(5)
    with pytest.raises(MetricError):
        reg.register_view("a.b.owned", lambda: 0)
    assert reg.value("a.b.owned") == 5


def test_registry_collect_and_as_dict():
    reg = MetricsRegistry()
    reg.counter("b.b.n", site="s").inc(2)
    reg.histogram("a.a.h").observe(1.5)
    rows = list(reg.collect())
    assert [r[0] for r in rows] == ["a.a.h", "b.b.n"]   # name-sorted
    assert rows[0][2] == "histogram" and rows[0][3]["count"] == 1
    assert rows[1][1:] == ({"site": "s"}, "counter", 2.0)


def test_environment_metrics_is_lazy_and_cached():
    env = Environment()
    assert env._metrics is None          # no registry until first touch
    reg = env.metrics
    assert env.metrics is reg


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("control.plane.admitted", plane="p1").inc(3)
    reg.histogram("cloud.veem.provisioning_s").observe(2.0)
    text = prometheus_text(reg)
    assert "# TYPE control_plane_admitted counter" in text
    assert 'control_plane_admitted{plane="p1"} 3' in text
    assert "# TYPE cloud_veem_provisioning_s summary" in text
    assert "cloud_veem_provisioning_s_count 1" in text
    assert 'cloud_veem_provisioning_s{quantile="0.5"} 2' in text


def test_prometheus_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.counter("a.b.c", path='C:\\tmp', note='say "hi"\nthere').inc()
    text = prometheus_text(reg)
    assert r'path="C:\\tmp"' in text
    assert r'note="say \"hi\"\nthere"' in text
    assert "\n\n" not in text            # no raw newline inside a sample


# ---------------------------------------------------------------------------
# Span semantics
# ---------------------------------------------------------------------------

def test_span_scope_nesting_and_record_attribution():
    env = Environment()
    log = TraceLog(env)
    with log.span_scope("outer", "a") as outer:
        rec_outer = log.emit("outer", "note")
        with log.span_scope("inner", "b") as inner:
            rec_inner = log.emit("inner", "note")
    assert inner.parent_id == outer.span_id
    assert rec_outer.span_id == outer.span_id
    assert rec_inner.span_id == inner.span_id
    assert outer.closed and inner.closed
    assert log.children(outer) == [inner]
    assert log.ancestors(inner) == [outer]
    assert log.is_ancestor(outer, inner)
    assert not log.is_ancestor(inner, outer)
    assert log.span_records(inner) == [rec_inner]


def test_explicit_parent_crosses_process_boundaries():
    env = Environment()
    log = TraceLog(env)
    root = log.span("control", "request")
    child = log.span("veem", "vm.deploy", parent=root)
    grandchild = log.span("host", "boot", parent=child.span_id)
    assert log.is_ancestor(root, grandchild)
    assert [s.span_id for s in log.ancestors(grandchild)] == \
        [child.span_id, root.span_id]


def test_double_close_rejected():
    env = Environment()
    log = TraceLog(env)
    sp = log.span("s", "k")
    log.close_span(sp)
    with pytest.raises(SpanError):
        log.close_span(sp)


def test_out_of_order_close_rejected():
    env = Environment()
    log = TraceLog(env)
    with log.span_scope("outer", "a") as outer:
        with log.span_scope("inner", "b"):
            with pytest.raises(SpanError):
                log.close_span(outer)   # outer still encloses inner
    assert outer.closed     # scope exit still closed it normally


def test_span_scope_error_status():
    env = Environment()
    log = TraceLog(env)
    with pytest.raises(RuntimeError):
        with log.span_scope("s", "k") as sp:
            raise RuntimeError("boom")
    assert sp.closed and sp.status == "error"
    assert env.current_span is None     # scope unwound


def test_orphan_spans_surface_at_end():
    env = Environment()
    log = TraceLog(env)
    done = log.span("s", "finished")
    log.close_span(done)
    orphan = log.span("s", "never.closed")
    assert log.open_spans() == [orphan]
    assert orphan.duration is None


def test_activate_makes_span_ambient_without_closing():
    env = Environment()
    log = TraceLog(env)
    sp = log.span("s", "k")
    with log.activate(sp):
        assert env.current_span is sp
        rec = log.emit("s", "work")
    assert rec.span_id == sp.span_id
    assert not sp.closed


def test_ambient_scope_shared_across_trace_logs():
    """Causality is a property of the environment, not of one log: a span
    activated through one log parents spans and records in another."""
    env = Environment()
    control_log = TraceLog(env)
    veem_log = TraceLog(env)
    request = control_log.span("control", "request")
    with control_log.activate(request):
        deploy = veem_log.span("veem", "vm.deploy")
        rec = veem_log.emit("veem", "vm.submit")
    assert deploy.parent_id == request.span_id
    assert rec.span_id == request.span_id


def test_flat_emit_json_is_byte_identical_to_seed_format():
    """Records emitted outside any span must serialise exactly as before
    spans existed — no span_id key, same key order."""
    env = Environment()
    log = TraceLog(env)
    rec = log.emit("veem", "vm.deploy", vm="vm-1", host="h0")
    seed_form = json.dumps(
        {"time": 0.0, "source": "veem", "kind": "vm.deploy",
         "details": {"vm": "vm-1", "host": "h0"}},
        sort_keys=True)
    assert rec.to_json() == seed_form
    assert rec.span_id is None


# ---------------------------------------------------------------------------
# Indexed queries vs. the linear reference
# ---------------------------------------------------------------------------

def _linear_query(log, source=None, kind=None,
                  since=float("-inf"), until=float("inf")):
    """The seed's O(n) scan, kept as the oracle."""
    return [r for r in log.records
            if (source is None or r.source == source)
            and (kind is None or r.kind == kind)
            and since <= r.time <= until]


def test_indexed_query_matches_linear_reference_randomized():
    rng = random.Random(20260805)
    env = Environment()
    log = TraceLog(env)
    sources = ["veem", "control", "lifecycle", "rule-engine"]
    kinds = ["a", "b", "c"]

    def writer(env):
        for i in range(400):
            log.emit(rng.choice(sources), rng.choice(kinds), i=i)
            if rng.random() < 0.5:
                yield env.timeout(rng.choice([0.0, 0.5, 1.0]))

    env.process(writer(env))
    # Interleave writes and queries: run in chunks so indices are
    # repeatedly refreshed mid-stream, then more records arrive.
    for until in (5, 20, 80, None):
        env.run(until=until)
        for _ in range(30):
            source = rng.choice(sources + [None])
            kind = rng.choice(kinds + [None])
            lo = rng.uniform(-1, env.now + 1)
            hi = lo + rng.uniform(0, env.now)
            window = rng.random() < 0.7
            kwargs = dict(source=source, kind=kind)
            if window:
                kwargs.update(since=lo, until=hi)
            assert log.query(**kwargs) == _linear_query(log, **kwargs)
    assert log.first(source="veem") == (_linear_query(log, source="veem")
                                        or [None])[0]
    linear = _linear_query(log, kind="c")
    assert log.last(kind="c") == (linear[-1] if linear else None)


def test_children_index_matches_linear_scan_randomized():
    rng = random.Random(20261017)
    env = Environment()
    log, other = TraceLog(env), TraceLog(env)
    foreign = other.span("elsewhere", "root")  # a parent in another log
    opened = []

    def linear_children(parent_id):
        return [s for s in log.spans.values() if s.parent_id == parent_id]

    # Query between batches, so spans keep arriving after the index has
    # been built and must be folded in on the next query.
    for batch in range(8):
        for _ in range(rng.randint(0, 50)):
            roll = rng.random()
            if roll < 0.15 or not opened:
                sp = log.span("s", "root")
            elif roll < 0.25:
                sp = log.span("s", "foreign-child", parent=foreign)
            elif roll < 0.4:
                # Ambient nesting: the parent comes from the open scope.
                with log.activate(rng.choice(opened)):
                    sp = log.span("s", "ambient-child")
            else:
                sp = log.span("s", "child", parent=rng.choice(opened))
            opened.append(sp)
        probes = rng.sample(opened, min(len(opened), 25))
        for probe in probes + [foreign]:
            expected = linear_children(probe.span_id)
            assert log.children(probe) == expected
            assert log.children(probe.span_id) == expected
        assert log.children(10 ** 9) == []
    # Each call returns a fresh list, as the scan did.
    parent = max(opened, key=lambda s: len(linear_children(s.span_id)))
    log.children(parent).clear()
    assert log.children(parent) == linear_children(parent.span_id) != []


# ---------------------------------------------------------------------------
# TimeSeries.sample drift
# ---------------------------------------------------------------------------

def test_time_series_sample_no_float_drift_at_1e6_steps():
    ts = TimeSeries("x", initial=1.0)
    period = 0.001
    n = 1_000_000
    samples = ts.sample(0.0, n * period, period)
    assert len(samples) == n + 1
    # Every grid point is exact to one rounding: start + i*period, not an
    # accumulated sum (which drifts by whole samples at this scale).
    for i in (1, 999, 500_000, n):
        assert samples[i][0] == i * period
    accumulated = 0.0
    for _ in range(n):
        accumulated += period
    # the naive accumulation this guards against really does drift
    assert abs(accumulated - n * period) > 1e-8
    assert abs(samples[-1][0] - 1000.0) < 1e-9


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _small_trace():
    env = Environment()
    log = TraceLog(env)

    def proc(env):
        with log.span_scope("veem", "vm.deploy", vm="vm-1"):
            log.emit("veem", "vm.submit", vm="vm-1")
        yield env.timeout(5)
        log.span("veem", "vm.shutdown", vm="vm-1")   # left open

    env.process(proc(env))
    env.run()
    return env, log


def test_export_jsonl_round_trips():
    _env, log = _small_trace()
    text = export_jsonl(log)
    rows = [json.loads(line) for line in text.splitlines()]
    records = [r for r in rows if r.get("record") != "span"]
    spans = [r for r in rows if r.get("record") == "span"]
    assert len(records) == 1 and records[0]["kind"] == "vm.submit"
    assert records[0]["span_id"] == spans[0]["span_id"]
    assert {s["kind"] for s in spans} == {"vm.deploy", "vm.shutdown"}


def test_chrome_trace_structure():
    env, log = _small_trace()
    doc = chrome_trace(log)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 2 and len(instants) == 1
    assert meta and meta[0]["args"]["name"] == "veem"
    deploy = next(e for e in complete if e["name"] == "vm.deploy")
    assert deploy["ts"] == 0.0 and deploy["dur"] == 0.0
    assert deploy["args"]["status"] == "ok"
    # the open span is drawn from its start up to the current clock
    shutdown = next(e for e in complete if e["name"] == "vm.shutdown")
    assert shutdown["args"]["status"] == "open"
    assert shutdown["ts"] == pytest.approx(5e6)     # opened at t=5, in µs
    assert shutdown["dur"] == pytest.approx((env.now - 5.0) * 1e6)
    json.dumps(doc)     # must be serialisable as-is


def test_render_span_tree_indents_by_causality():
    env = Environment()
    log = TraceLog(env)
    with log.span_scope("control", "request") as root:
        log.span_scope("veem", "vm.deploy").__enter__()  # nested + open
    text = render_span_tree(log)
    lines = text.splitlines()
    assert lines[0].startswith(f"#{root.span_id} control:request")
    assert lines[1].startswith("  #") and "veem:vm.deploy" in lines[1]
    only = render_span_tree(log, root=root.span_id)
    assert only.splitlines()[0] == lines[0]


# ---------------------------------------------------------------------------
# The §4.2.3 time-constraint auditor
# ---------------------------------------------------------------------------

def _firing_trace(action_delay, constraint=10.0):
    """A hand-built causal chain: kpi.publish → rule.firing → vm.deploy
    with the deploy invoked ``action_delay`` after the measurement."""
    env = Environment()
    log = TraceLog(env)

    def proc(env):
        kpi = log.span("monitoring", "kpi.publish", kpi="load")
        log.close_span(kpi)
        yield env.timeout(action_delay)
        firing = log.span("rule-engine", "rule.firing", parent=kpi,
                          rule="up", service="svc",
                          time_constraint_s=constraint)
        with log.activate(firing):
            deploy = log.span("veem", "vm.deploy", vm="vm-1")
            log.emit("rule-engine", "elasticity.action",
                     rule="up", operation="deployVM")
        log.close_span(deploy)
        log.close_span(firing, "fired")

    env.process(proc(env))
    env.run()
    return log


def test_auditor_passes_inside_window():
    report = TimeConstraintAuditor(_firing_trace(4.0)).audit()
    assert report.ok
    (finding,) = report.findings
    assert finding.rule == "up"
    assert finding.enabled_at == 0.0
    assert len(finding.invocations) == 2     # child span + action record
    assert {w for w, _, _ in finding.invocations} == \
        {"veem:vm.deploy", "action:deployVM"}
    assert "PASS" in report.render()


def test_auditor_flags_late_invocation():
    report = TimeConstraintAuditor(_firing_trace(11.0)).audit()
    assert not report.ok
    (finding,) = report.violations
    for _what, at, lateness in finding.violations:
        assert at == 11.0 and lateness == pytest.approx(1.0)
    rendered = report.render()
    assert "FAIL" in rendered and "LATE by 1.000s" in rendered


def test_auditor_boundary_invocation_is_on_time():
    report = TimeConstraintAuditor(_firing_trace(10.0)).audit()
    assert report.ok


def test_auditor_skips_firings_without_constraint():
    env = Environment()
    log = TraceLog(env)
    log.span("rule-engine", "rule.firing", rule="r")     # no constraint
    report = TimeConstraintAuditor(log).audit()
    assert report.findings == []
    assert "no rule firings" in report.render()


# ---------------------------------------------------------------------------
# End-to-end causal chain through the real stack
# ---------------------------------------------------------------------------

def _elastic_stack():
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.core.manifest.builder import ManifestBuilder
    from repro.core.service_manager.manager import ServiceManager
    from repro.monitoring.agents import MonitoringAgent

    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=1000))
    timings = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
    for i in range(4):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    sm = ServiceManager(env, veem)
    b = ManifestBuilder("elastic")
    b.component("web", image_mb=128, cpu=1, memory_mb=1024,
                initial=1, minimum=1, maximum=3)
    b.kpi("LB", "web", "demo.web.load", frequency_s=5, default=0)
    b.rule("up", "@demo.web.load > 80", "deployVM(web)",
           time_constraint_ms=30_000)
    service = sm.deploy(b.build())
    env.run(until=service.deployment)
    load = {"value": 0}
    agent = MonitoringAgent(env, service_id=service.service_id,
                            component="LB", network=sm.network,
                            trace=sm.trace)
    agent.expose("demo.web.load", lambda: load["value"], frequency_s=5)
    return env, sm, service, agent, load


def test_e2e_kpi_span_is_ancestor_of_deploy_span():
    env, sm, service, agent, load = _elastic_stack()
    trace = sm.trace
    load["value"] = 100
    env.run(until=env.now + 60)
    agent.stop()
    assert service.instance_count("web") > 1     # it scaled
    deploys = [s for s in trace.find_spans(kind="vm.deploy")
               if s.details.get("service") == service.service_id
               and s.details.get("component") == "web"
               and any(a.kind == "rule.firing"
                       for a in trace.ancestors(s))]   # the elasticity ones
    assert deploys, "no rule-caused vm.deploy spans"
    for deploy in deploys:
        kinds = [s.kind for s in trace.ancestors(deploy)]
        # measurement above the firing above the deploy
        assert kinds.index("rule.firing") < kinds.index("kpi.publish")
    report = TimeConstraintAuditor(trace).audit()
    assert report.findings and report.ok


def test_e2e_service_span_closes_and_undeploy_nests():
    env, sm, service, agent, load = _elastic_stack()
    trace = sm.trace
    assert service.span.closed and service.span.status == "ok"
    assert service.span.kind == "service.deploy"
    # the initial web VM's deploy span nests under the service span
    initial = [s for s in trace.find_spans(kind="vm.deploy")
               if s.parent_id == service.span.span_id]
    assert initial
    agent.stop()
    env.run(until=sm.undeploy(service))
    term = service.lifecycle.term_span
    assert term is not None and term.closed and term.status == "ok"
    assert term.parent_id == service.span.span_id
    # no orphans: every span opened for this service is closed
    leaked = [s for s in trace.open_spans()
              if s.details.get("service") == service.service_id]
    assert leaked == []


def test_e2e_metrics_registry_sees_every_layer():
    env, sm, service, agent, load = _elastic_stack()
    load["value"] = 100
    env.run(until=env.now + 60)
    agent.stop()
    metrics = env.metrics
    sid = service.service_id
    assert metrics.value("core.rules.firings", service=sid) >= 1
    assert metrics.value("core.lifecycle.scale_ups", service=sid) >= 1
    assert metrics.value("core.lifecycle.active_instances",
                         service=sid) == service.instance_count("web")
    assert metrics.value("cloud.veem.submitted", site="veem") >= 2
    hist = metrics.get("cloud.veem.provisioning_s", site="veem")
    assert isinstance(hist, Histogram) and hist.count >= 2
    assert metrics.value("cloud.placement.selections", site="veem") >= 2
    # fabric views exist (fabric label is instance-scoped)
    assert "monitoring.fabric.packets_published" in metrics
    text = prometheus_text(metrics)
    assert "core_rules_firings" in text


def test_compat_counter_views_match_legacy_attributes():
    """The pre-registry attribute names must still read correctly."""
    env, sm, service, agent, load = _elastic_stack()
    load["value"] = 100
    env.run(until=env.now + 40)
    agent.stop()
    interp = service.interpreter
    assert env.metrics.value("core.rules.evaluations",
                             service=service.service_id) == \
        interp.evaluations
    assert env.metrics.value("core.rules.firings",
                             service=service.service_id) == \
        len(interp.firings)
