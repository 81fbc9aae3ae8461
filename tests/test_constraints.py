"""Tests for the OCL-style constraint framework and generated instruments."""

import pytest

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor
from repro.core.constraints.deployment import (
    AssociationInvariant,
    InstanceBoundsInvariant,
    deployment_suite,
)
from repro.core.constraints.framework import ConstraintSuite, Violation
from repro.core.constraints.instruments import (
    ElasticityEnforcementValidator,
    generate_instruments,
)
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.manager import ServiceManager
from repro.monitoring.agents import MonitoringAgent
from repro.monitoring.consumers import MeasurementJournal
from repro.monitoring.distribution import MulticastChannel
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment
from repro.sim.tracing import TraceLog

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)


def make_veem(env, n_hosts=4):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=TIMINGS))
    return veem


def sap_manifest():
    """The §3 motivating example: CI+DBMS co-located, elastic DIs."""
    b = ManifestBuilder("sap-erp")
    b.network("internal")
    b.network("dmz", public=True)
    b.component("DBMS", image_mb=2000, cpu=2, memory_mb=6144,
                networks=["internal"], startup_order=0)
    b.component("CI", image_mb=1000, cpu=2, memory_mb=4096,
                networks=["internal"], startup_order=1, replicable=False)
    b.component("WebDispatcher", image_mb=500, cpu=1, memory_mb=1024,
                networks=["internal", "dmz"], startup_order=2)
    b.component("DI", image_mb=1000, cpu=1, memory_mb=2048,
                networks=["internal"], startup_order=3,
                initial=1, minimum=1, maximum=6)
    b.colocate("CI", "DBMS")
    b.application("sap-app")
    b.kpi("WebDispatcher", "WebDispatcher",
          "com.sap.webdispatcher.kpis.sessions", frequency_s=30, default=0)
    b.kpi("DIs", "DI", "com.sap.di.instances", frequency_s=30, default=1)
    b.rule("scale-di-up",
           "(@com.sap.webdispatcher.kpis.sessions / 50 > "
           "@com.sap.di.instances) && (@com.sap.di.instances < 6)",
           "deployVM(DI)")
    b.rule("scale-di-down",
           "(@com.sap.webdispatcher.kpis.sessions == 0) && "
           "(@com.sap.di.instances > 1)",
           "undeployVM(DI)")
    return b.build()


def deployed_sap(env):
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(sap_manifest())
    env.run(until=service.deployment)
    return sm, service


# ---------------------------------------------------------------------------
# Framework basics
# ---------------------------------------------------------------------------

def test_suite_reports_checked_and_violations():
    class AlwaysFails(InstanceBoundsInvariant):
        name = "always"

        def check(self, domain):
            return [self.violation("nope", detail=1)]

    suite = ConstraintSuite([AlwaysFails()])
    report = suite.check(None)
    assert not report.ok
    assert report.checked == ["always"]
    assert [v.context for v in report.violations
            if v.constraint == "always"] == [{"detail": 1}]
    assert "1 violation" in report.summary()


def test_violation_str():
    v = Violation("assoc", "broken")
    assert "assoc" in str(v) and "broken" in str(v)


# ---------------------------------------------------------------------------
# Association invariant (§4.2.2 OCL)
# ---------------------------------------------------------------------------

def test_association_holds_for_real_deployment():
    env = Environment()
    sm, service = deployed_sap(env)
    report = service.check_constraints()
    assert report.ok, [str(v) for v in report.violations]


def test_association_detects_tampered_memory():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    domain.descriptors[0].memory_mb += 1  # simulated faulty transformation
    violations = AssociationInvariant().check(domain)
    assert any("memory" in v.message for v in violations)


def test_association_detects_wrong_disk_source():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    domain.descriptors[0].disk_source = "http://evil/image"
    violations = AssociationInvariant().check(domain)
    assert any("disk source" in v.message for v in violations)


def test_association_detects_missing_descriptor():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    domain.descriptors = [d for d in domain.descriptors
                          if d.component_id != "CI"]
    violations = AssociationInvariant().check(domain)
    assert any("no deployment descriptor" in v.message for v in violations)


def test_association_detects_unknown_component():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    domain.descriptors.append(DeploymentDescriptor(
        name="rogue", memory_mb=1, cpu=1, disk_source="x",
        service_id=service.service_id, component_id="rogue"))
    violations = AssociationInvariant().check(domain)
    assert any("unknown virtual system" in v.message for v in violations)


# ---------------------------------------------------------------------------
# Placement / bounds / startup invariants over the real stack
# ---------------------------------------------------------------------------

def test_colocation_constraint_enforced_and_checked():
    env = Environment()
    sm, service = deployed_sap(env)
    ci = service.lifecycle.components["CI"].vms[0]
    dbms = service.lifecycle.components["DBMS"].vms[0]
    assert ci.host is dbms.host  # placement actually co-located them
    report = service.check_constraints()
    assert [v for v in report.violations if v.constraint == "colocation"] \
        == []


def test_colocation_violation_detected_after_bad_migration():
    env = Environment()
    sm, service = deployed_sap(env)
    ci = service.lifecycle.components["CI"].vms[0]
    target = next(h for h in sm.veem.hosts if h is not ci.host)

    def migrate(env):
        yield sm.veem.migrate(ci, target)

    env.process(migrate(env))
    env.run(until=env.now + 100)
    report = service.check_constraints()
    assert any(v.constraint == "colocation" for v in report.violations)


def test_instance_bounds_violation_detected():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    # Simulate a runaway: clone DI VMs beyond the maximum of 6.
    di_vms = [vm for vm in domain.vms
              if vm.descriptor.component_id == "DI"]
    domain.vms.extend(di_vms * 6)
    violations = InstanceBoundsInvariant().check(domain)
    assert any("above maximum" in v.message for v in violations)


def test_startup_order_postcondition_detects_early_submission():
    env = Environment()
    sm, service = deployed_sap(env)
    domain = service.lifecycle.provisioning_domain()
    # Tamper: pretend the CI was submitted before the DBMS was running.
    ci_vm = next(vm for vm in domain.vms
                 if vm.descriptor.component_id == "CI")
    ci_vm.submitted_at = 0.0
    dbms_vm = next(vm for vm in domain.vms
                   if vm.descriptor.component_id == "DBMS")
    assert dbms_vm.running_at > 0
    report = deployment_suite().check(domain)
    assert any(v.constraint == "startup-order" for v in report.violations)


# ---------------------------------------------------------------------------
# Generated instruments (§4.2.3)
# ---------------------------------------------------------------------------

def test_kpi_reporter_tracks_streams():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    manifest = sap_manifest()
    instruments = generate_instruments(manifest, "svc-sap", sm.network)
    service = sm.deploy(manifest, service_id="svc-sap")
    env.run(until=service.deployment)

    agent = MonitoringAgent(env, service_id="svc-sap",
                            component="WebDispatcher", network=sm.network)
    agent.expose("com.sap.webdispatcher.kpis.sessions", lambda: 42,
                 frequency_s=30)
    env.run(until=env.now + 100)

    reports = {r.qualified_name: r for r in instruments.reporter.report()}
    sessions = reports["com.sap.webdispatcher.kpis.sessions"]
    assert sessions.events == 3
    assert sessions.last_value == 42
    assert sessions.frequency_ok()
    assert [name for name, r in reports.items() if r.silent] \
        == ["com.sap.di.instances"]


def test_reporter_requires_application_description():
    env = Environment()
    b = ManifestBuilder("bare")
    b.component("a", image_mb=1)
    with pytest.raises(ValueError):
        generate_instruments(b.build(), "svc", MulticastChannel(env))


def _journal_with(events):
    journal = MeasurementJournal()
    for qname, value, t in events:
        journal.notify(Measurement(qname, "svc", "p", t, (value,)))
    return journal


def _trace_with(env, actions):
    trace = TraceLog(env)
    records = []
    for rule, t in actions:
        # emit() stamps env.now; build records manually for arbitrary times
        from repro.sim.tracing import TraceRecord
        trace.records.append(TraceRecord(
            t, "rule-engine", "elasticity.action",
            {"rule": rule, "service": "svc", "operation": "deployVM",
             "component_ref": "x"}))
    return trace


def enforcement_manifest():
    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=0, minimum=0, maximum=4)
    b.kpi("C", "exec", "q.size", default=0)
    b.rule("up", "@q.size > 4", "deployVM(exec)", time_constraint_ms=5000)
    return b.build()


def test_enforcement_validator_accepts_timely_action():
    env = Environment()
    manifest = enforcement_manifest()
    journal = _journal_with([("q.size", 10, 100.0)])
    trace = _trace_with(env, [("up", 103.0)])  # within 5 s window
    validator = ElasticityEnforcementValidator(manifest, "svc", journal, trace)
    assert validator.violations() == []
    assert validator.summary()["up"]["enforced"] == 1


def test_enforcement_validator_flags_missed_action():
    env = Environment()
    manifest = enforcement_manifest()
    journal = _journal_with([("q.size", 10, 100.0)])
    trace = _trace_with(env, [("up", 120.0)])  # too late
    validator = ElasticityEnforcementValidator(manifest, "svc", journal, trace)
    violations = validator.violations()
    assert len(violations) == 1
    assert "no action was invoked" in violations[0].message


def test_enforcement_validator_excuses_cooldown():
    env = Environment()
    manifest = enforcement_manifest()
    journal = _journal_with([
        ("q.size", 10, 100.0),
        ("q.size", 12, 101.0),  # still holding, inside cooldown
    ])
    trace = _trace_with(env, [("up", 100.5)])
    validator = ElasticityEnforcementValidator(manifest, "svc", journal, trace)
    summary = validator.summary()["up"]
    # First event enforced; second event is enforced (action within its
    # window) or cooldown — but never missed.
    assert summary["missed"] == 0


def test_enforcement_validator_ignores_non_holding_events():
    env = Environment()
    manifest = enforcement_manifest()
    journal = _journal_with([("q.size", 1, 100.0)])
    validator = ElasticityEnforcementValidator(
        manifest, "svc", journal, _trace_with(env, []))
    assert validator.findings() == []


def test_end_to_end_enforcement_validation():
    """Full stack: deploy, drive load, then validate enforcement from the
    real journal and trace — the paper's §4.2.3 instrument in action."""
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    manifest = sap_manifest()
    service = sm.deploy(manifest, service_id="svc-sap")
    env.run(until=service.deployment)

    sessions = {"n": 0}
    agent = MonitoringAgent(env, service_id="svc-sap",
                            component="WebDispatcher", network=sm.network)
    agent.expose("com.sap.webdispatcher.kpis.sessions",
                 lambda: sessions["n"], frequency_s=10)
    agent.expose("com.sap.di.instances",
                 lambda: service.instance_count("DI"), frequency_s=10)
    sessions["n"] = 300
    env.run(until=env.now + 120)
    sessions["n"] = 0
    env.run(until=env.now + 120)

    validator = ElasticityEnforcementValidator(
        manifest, "svc-sap", service.interpreter.journal, sm.trace)
    assert validator.violations() == [], [
        str(v) for v in validator.violations()]
    summary = validator.summary()
    assert summary["scale-di-up"]["enforced"] >= 1
    assert summary["scale-di-down"]["enforced"] >= 1
