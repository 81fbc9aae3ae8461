"""Tests for the SLA syntax (§8 future work) and the SLA monitor."""

import pytest

from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.ovf_xml import manifest_from_xml, manifest_to_xml
from repro.core.manifest.sla import ServiceLevelObjective, SLASection
from repro.core.manifest.validation import validate_manifest, Severity
from repro.core.sla import SLAMonitor
from repro.monitoring.measurements import AttributeType, Measurement
from repro.sim.kernel import Environment


def make_slo(**kw):
    kw.setdefault("name", "responsive")
    kw.setdefault("expression", "@app.response.time < 2")
    kw.setdefault("defaults", {"app.response.time": 0})
    return ServiceLevelObjective.from_text(**kw)


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

def test_slo_validation():
    with pytest.raises(ValueError):
        make_slo(name="")
    with pytest.raises(ValueError):
        make_slo(evaluation_period_s=0)
    with pytest.raises(ValueError):
        make_slo(target_compliance=0)
    with pytest.raises(ValueError):
        make_slo(target_compliance=1.5)
    with pytest.raises(ValueError):
        make_slo(assessment_window_s=10, evaluation_period_s=30)
    with pytest.raises(ValueError):
        make_slo(penalty_per_breach=-1)


def test_sla_section_lookups():
    slo = make_slo()
    section = SLASection((slo,))
    assert section.objective("responsive") is slo
    assert bool(section)
    assert list(section) == [slo]
    with pytest.raises(KeyError):
        section.objective("ghost")
    with pytest.raises(ValueError):
        SLASection((slo, slo))
    assert not SLASection()


def sla_manifest():
    b = ManifestBuilder("svc")
    b.component("web", image_mb=100, initial=1, minimum=1, maximum=4)
    b.kpi("LB", "web", "app.response.time", type_name="double", default=0)
    b.kpi("Web", "web", "app.web.instances", default=1)
    b.rule("up", "(@app.response.time > 1.5) && (@app.web.instances < 4)",
           "deployVM(web)")
    b.slo("responsive", "@app.response.time < 2",
          evaluation_period_s=30, target_compliance=0.9,
          assessment_window_s=300, penalty_per_breach=50)
    return b.build()


def test_sla_xml_round_trip():
    m1 = sla_manifest()
    m2 = manifest_from_xml(manifest_to_xml(m1))
    assert m2.sla == m1.sla
    slo = m2.sla.objective("responsive")
    assert slo.penalty_per_breach == 50
    assert slo.target_compliance == 0.9
    # Defaults bound into the round-tripped expression.
    assert slo.expression.holds(lambda n: None)


def test_sla_validation_catches_undeclared_kpi():
    b = ManifestBuilder("svc")
    b.component("web", image_mb=100)
    b.slo("bad", "@un.declared < 1")
    codes = {i.code for i in validate_manifest(b.build(validate=False))
             if i.severity is Severity.ERROR}
    assert "slo-undeclared-kpi" in codes


def test_slo_counts_as_kpi_consumer():
    """A KPI consumed only by an SLO must not warn as unused."""
    b = ManifestBuilder("svc")
    b.component("web", image_mb=100)
    b.kpi("LB", "web", "app.response.time", default=0)
    b.slo("responsive", "@app.response.time < 2")
    warnings = {i.code for i in validate_manifest(b.build(validate=False))
                if i.severity is Severity.WARNING}
    assert "kpi-unused" not in warnings


# ---------------------------------------------------------------------------
# Monitor
# ---------------------------------------------------------------------------

def measurement(value, t, qname="app.response.time"):
    return Measurement(qname, "svc-1", "p", t, (value,))


def make_monitor(env, **slo_kw):
    slo_kw.setdefault("evaluation_period_s", 10)
    slo_kw.setdefault("assessment_window_s", 100)
    slo_kw.setdefault("target_compliance", 0.9)
    slo_kw.setdefault("penalty_per_breach", 25.0)
    slo = make_slo(**slo_kw)
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)),
                         kpi_defaults={"app.response.time": 0})
    return monitor, slo


def drive(env, monitor, profile):
    """profile: list of (time, response_time) updates."""
    def proc(env):
        for t, value in profile:
            yield env.timeout(t - env.now)
            monitor.notify(measurement(value, env.now))

    env.process(proc(env))


def test_monitor_keeps_only_what_its_windows_read():
    """An objective over ``mean(@kpi, 30)`` keeps that stream back to
    ``now - 30``; a stream no objective aggregates keeps nothing."""
    from math import inf

    env = Environment()
    slo = make_slo(expression="mean(@app.response.time, 30) < 2")
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)),
                         kpi_defaults={"app.response.time": 0})

    def proc(env):
        for _ in range(100):   # one sample a second, its value its time
            monitor.notify(measurement(env.now, env.now))
            monitor.notify(measurement(env.now, env.now, qname="app.load"))
            yield env.timeout(1)

    env.process(proc(env))
    env.run()
    kept = monitor.bindings.windows
    assert kept.aggregate("app.response.time", -inf, inf, "count") == 31.0
    assert kept.aggregate("app.response.time", -inf, inf, "min") == 69.0
    assert kept.aggregate("app.load", -inf, inf, "count") == 0.0
    assert monitor.bindings.store.value("svc-1", "app.load") == 99.0


def test_monitor_all_compliant():
    env = Environment()
    monitor, _ = make_monitor(env)
    monitor.start()
    drive(env, monitor, [(5, 0.5), (50, 0.8)])
    env.run(until=301)
    assert monitor.compliance("responsive") == 1.0
    assert monitor.breaches() == []
    assert monitor.penalties_accrued == 0
    ok = monitor.trace.query(kind="slo.window.ok")
    assert len(ok) == 3  # three 100 s windows assessed


def test_monitor_detects_breach_and_penalty():
    env = Environment()
    monitor, _ = make_monitor(env)
    monitor.start()
    # Response time bad for the whole first window.
    drive(env, monitor, [(1, 5.0), (105, 0.5)])
    env.run(until=201)
    breaches = monitor.breaches("responsive")
    assert len(breaches) == 1
    assert breaches[0].compliance < 0.9
    assert monitor.penalties_accrued == 25.0
    # Second window recovered.
    assert monitor.trace.last(kind="slo.window.ok") is not None


def test_monitor_tolerates_violations_within_target():
    env = Environment()
    monitor, _ = make_monitor(env, target_compliance=0.5)
    monitor.start()
    # Bad for ~30 s of a 100 s window → compliance ≈ 0.7 ≥ 0.5.
    drive(env, monitor, [(1, 5.0), (35, 0.5)])
    env.run(until=101)
    assert monitor.breaches() == []


def test_monitor_unevaluable_counts_as_held():
    """Before any data arrives (and without defaults) the obligation has not
    begun — samples count as held."""
    env = Environment()
    slo = ServiceLevelObjective.from_text(
        "nodata", "@never.reported < 1",
        evaluation_period_s=10, assessment_window_s=100)
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)))
    monitor.start()
    env.run(until=101)
    assert monitor.compliance("nodata") == 1.0
    assert monitor.breaches() == []


def test_monitor_unreadable_value_counts_as_held():
    """A defaulted KPI whose latest value float() refuses makes the
    objective unevaluable, as the reference evaluation raises, even where
    the other operand of ``&&`` is already false."""
    env = Environment()
    slo = ServiceLevelObjective.from_text(
        "steady", "(@app.load > 1) && (@app.state < 5)",
        defaults={"app.load": 0, "app.state": 0})
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)),
                         kpi_defaults={"app.load": 0, "app.state": 0})
    monitor.notify(measurement(0.0, 0.0, qname="app.load"))
    monitor.notify(measurement("degraded", 0.0, qname="app.state"))
    assert monitor.sample("steady").held
    assert monitor.trace.query(kind="slo.violated") == []


def test_protection_hook_invoked_on_breach():
    env = Environment()
    monitor, slo = make_monitor(env)
    protected = []
    monitor.add_protection_hook(
        lambda s, c: protected.append((s.name, c)) or True)
    monitor.start()
    drive(env, monitor, [(1, 9.0)])
    env.run(until=101)
    assert protected and protected[0][0] == "responsive"
    assert monitor.trace.last(kind="slo.protected") is not None


def test_protection_hook_errors_logged_not_raised():
    env = Environment()
    monitor, _ = make_monitor(env)

    def bad_hook(slo, compliance):
        raise RuntimeError("hook exploded")

    monitor.add_protection_hook(bad_hook)
    monitor.start()
    drive(env, monitor, [(1, 9.0)])
    env.run(until=101)
    assert monitor.trace.last(kind="slo.protection.failed") is not None


def test_monitor_stop_halts_sampling():
    env = Environment()
    monitor, _ = make_monitor(env)
    monitor.start()
    env.run(until=51)
    before = len(monitor._states["responsive"].samples)
    monitor.stop()
    env.run(until=500)
    assert len(monitor._states["responsive"].samples) == before


def test_window_slo_over_journal():
    """SLOs may use the time-series window operations."""
    env = Environment()
    slo = ServiceLevelObjective.from_text(
        "queue-healthy", "mean(@q.size, 60) < 10",
        evaluation_period_s=10, assessment_window_s=100,
        defaults={"q.size": 0})
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)),
                         kpi_defaults={"q.size": 0})
    monitor.start()

    def proc(env):
        for t, v in [(5, 50), (15, 60), (25, 55), (65, 1), (75, 1)]:
            yield env.timeout(t - env.now)
            monitor.notify(measurement(v, env.now, qname="q.size"))

    env.process(proc(env))
    env.run(until=101)
    compliance = monitor.compliance("queue-healthy")
    assert compliance is not None and 0 < compliance < 1


def test_statement_shape():
    env = Environment()
    monitor, _ = make_monitor(env)
    monitor.start()
    drive(env, monitor, [(1, 9.0)])
    env.run(until=101)
    statement = monitor.statement()
    entry = statement["responsive"]
    assert entry["breaches"] == 1
    assert entry["penalties"] == 25.0
    assert entry["samples"] == 10
    assert 0 <= entry["compliance"] <= 1


def test_end_to_end_sla_protection_scales_service():
    """Full loop: SLO breach → protection hook → scale-up via lifecycle."""
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.core.service_manager.lifecycle import ScaleError
    from repro.core.service_manager.manager import ServiceManager
    from repro.monitoring.agents import MonitoringAgent

    env = Environment()
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384,
                       timings=HypervisorTimings(define_s=1, boot_s=5,
                                                 shutdown_s=1)))
    sm = ServiceManager(env, veem)
    manifest = sla_manifest()
    # Rules stopped: only the SLA protection path may add capacity.
    service = sm.deploy(manifest, service_id="svc-1")
    service.interpreter.stop()
    env.run(until=service.deployment)

    monitor = SLAMonitor(env, "svc-1", manifest.sla,
                         kpi_defaults=manifest.kpi_defaults(),
                         trace=sm.trace)
    monitor.subscribe_to(sm.network)

    def protect(slo, compliance):
        try:
            service.lifecycle.scale_up("web")
            return True
        except ScaleError:
            return False

    monitor.add_protection_hook(protect)
    monitor.start()

    # An overloaded single instance reports terrible response times; with
    # the rule engine off, only the SLA protection path can add capacity.
    agent = MonitoringAgent(env, service_id="svc-1", component="LB",
                            network=sm.network)
    agent.expose("app.response.time", lambda: 8.0, frequency_s=10,
                 type=AttributeType.DOUBLE)
    env.run(until=env.now + 320)
    assert monitor.penalties_accrued > 0
    assert service.instance_count("web") > 1
    assert sm.trace.last(kind="slo.protected") is not None
