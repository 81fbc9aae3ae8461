"""The §4.2.1 time parameters mean the same to every evaluator.

"The current time can be introduced as a monitorable parameter if
necessary" (§4.2.1): ``system.time.now`` and ``system.time.timeofday``.
The rule engine, the SLA monitor and the generated validator all read a
condition through one ``ServiceBindings``, so a manifest may name the
time in a rule or an SLO, validation accepts it, and every evaluator reads
it from its own clock: the simulation's, or the validator's replay.
"""

from repro.cloud.veeh import Host
from repro.cloud.veem import VEEM
from repro.core.constraints.instruments import (
    ElasticityEnforcementValidator,
    generate_instruments,
)
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.hutn import manifest_from_text, manifest_to_text
from repro.core.manifest.ovf_xml import manifest_from_xml, manifest_to_xml
from repro.core.manifest.validation import Severity, validate_manifest
from repro.core.service_manager.manager import ServiceManager
from repro.core.sla import SLAMonitor
from repro.monitoring.agents import MonitoringAgent
from repro.monitoring.consumers import MeasurementJournal
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment
from repro.sim.tracing import TraceLog

NINE, FIVE = 9 * 3600, 17 * 3600
BUSINESS_HOURS = ("(@system.time.timeofday >= 32400) && "
                  "(@system.time.timeofday < 61200) && (@q.size > 4)")


def builder(name="clock"):
    b = ManifestBuilder(name)
    b.component("app", image_mb=64, initial=1, minimum=1, maximum=3)
    b.kpi("app", "app", "q.size", default=0, frequency_s=600)
    return b


def test_validation_accepts_the_builtin_time_parameters():
    b = builder()
    b.rule("up", "(@system.time.now > 50) && (@q.size > 3)", "notify()")
    b.slo("early", "@system.time.timeofday < 3600")
    issues = validate_manifest(b.build())
    assert [i for i in issues if i.severity is Severity.ERROR] == []
    assert not any("system.time" in i.message for i in issues)


def test_an_slo_on_the_clock_is_violated_once_the_clock_passes():
    b = builder()
    b.rule("up", "@q.size > 3", "notify()")
    b.slo("young", "@system.time.now < 100", evaluation_period_s=30,
          assessment_window_s=300)
    manifest = b.build(validate=False)   # the read alone, not validation
    env = Environment()
    monitor = SLAMonitor(env, "svc", manifest.sla,
                         kpi_defaults=manifest.kpi_defaults())
    monitor.start()
    env.run(until=300.5)
    assert monitor.statement()["young"]["samples"] == 10
    assert [r.time for r in monitor.trace.query(kind="slo.violated")] == [
        30.0 * k for k in range(4, 11)]


def test_the_validator_judges_a_rule_on_the_clock():
    b = builder()
    b.kpi("app", "app", "k.a", default=0)
    b.rule("up", "(@system.time.now > 50) && (@k.a > 3)", "notify()")
    manifest = b.build(validate=False)   # the read alone, not validation
    journal = MeasurementJournal()
    for t in (40.0, 60.0, 120.0):
        journal.notify(Measurement("k.a", "svc", "p", t, (10,)))
    validator = ElasticityEnforcementValidator(manifest, "svc", journal,
                                               TraceLog(Environment()))
    assert [(f.held_at, f.verdict) for f in validator.findings()] == [
        (60.0, "missed"), (120.0, "missed")]


def test_a_business_hours_rule_from_the_manifest_fires_only_inside_hours():
    b = builder("hours")
    b.rule("office", BUSINESS_HOURS, "notify()", cooldown_s=3600)
    manifest = b.build()
    assert manifest_from_text(manifest_to_text(manifest)) == manifest
    assert manifest_from_xml(manifest_to_xml(manifest)) == manifest

    env = Environment(initial_time=6 * 3600)
    veem = VEEM(env)
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384))
    sm = ServiceManager(env, veem)
    instruments = generate_instruments(manifest, "hours", sm.network)
    service = sm.deploy(manifest, service_id="hours")
    env.run(until=service.deployment)
    # The probe reports on the ten minutes, so a report lands on each hour
    # the rule fires at, inside the rule's time constraint.
    env.run(until=6 * 3600 + 600)
    agent = MonitoringAgent(env, service_id="hours", component="app",
                            network=sm.network)
    agent.expose("q.size", lambda: 50, frequency_s=600)
    env.run(until=30 * 3600)

    fired = [f.time for f in service.interpreter.firings]
    assert fired == [float(h * 3600) for h in range(9, 17)]
    samples = [m.timestamp for m in instruments.reporter.journal]
    inside = [t for t in samples if NINE <= t % 86400 < FIVE]
    assert len(inside) > 40 and len(samples) > len(inside)
    findings = instruments.validator(sm.trace).findings()
    assert [f.held_at for f in findings] == inside
    verdicts = {f.verdict for f in findings}
    assert verdicts == {"enforced", "cooldown"}
    enforced = [f.action_at for f in findings if f.verdict == "enforced"]
    assert enforced == fired
