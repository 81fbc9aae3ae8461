"""Tests for the Service Manager: parser, rule interpreter, lifecycle."""

import pytest

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import VMState
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.validation import ManifestValidationError
from repro.core.service_manager.lifecycle import ScaleError
from repro.core.service_manager.manager import ServiceManager
from repro.core.service_manager.parser import ManifestParser
from repro.core.service_manager.rules import RuleInterpreter
from repro.monitoring.agents import MonitoringAgent
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)


def make_veem(env, n_hosts=4):
    repo = ImageRepository(bandwidth_mb_per_s=1000)  # fast staging for tests
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=TIMINGS))
    return veem


def web_manifest(max_web=4):
    """A small elastic web service used across these tests."""
    b = ManifestBuilder("webshop")
    b.network("internal")
    b.component("db", image_mb=1000, cpu=2, memory_mb=4096,
                networks=["internal"], startup_order=0)
    b.component("web", image_mb=500, cpu=1, memory_mb=1024,
                networks=["internal"], startup_order=1,
                initial=1, minimum=1, maximum=max_web,
                customisation={"db_host": "${ip.internal.db}"})
    b.application("webshop-app")
    b.kpi("LoadBalancer", "web", "com.shop.lb.sessions", frequency_s=10,
          default=0)
    b.rule("up", "(@com.shop.lb.sessions / 100 > @instances.of.web) && "
                 "(@instances.of.web < 4)".replace("@instances.of.web",
                                                   "@com.shop.web.instances"),
           "deployVM(web)", time_constraint_ms=4000)
    b.kpi("Web", "web", "com.shop.web.instances", frequency_s=10, default=1)
    b.rule("down", "(@com.shop.lb.sessions == 0) && "
                   "(@com.shop.web.instances > 1)",
           "undeployVM(web)", time_constraint_ms=4000)
    return b.build()


# ---------------------------------------------------------------------------
# ManifestParser
# ---------------------------------------------------------------------------

def test_parser_assigns_service_ids():
    parser = ManifestParser()
    p1 = parser.parse(web_manifest())
    p2 = parser.parse(web_manifest())
    assert p1.service_id != p2.service_id
    p3 = parser.parse(web_manifest(), service_id="custom")
    assert p3.service_id == "custom"


def test_parser_rejects_invalid_manifest():
    b = ManifestBuilder("bad")
    b.component("a", image_mb=1, networks=["ghost"])
    with pytest.raises(ManifestValidationError):
        ManifestParser().parse(b.build(validate=False))


def test_parser_accepts_xml():
    from repro.core.manifest.ovf_xml import manifest_to_xml
    xml = manifest_to_xml(web_manifest())
    parsed = ManifestParser().parse(xml)
    assert parsed.manifest.service_name == "webshop"


def test_descriptor_generation_matches_manifest():
    parsed = ManifestParser().parse(web_manifest())
    system = parsed.manifest.system("web")
    d0 = parsed.descriptor_for(system, 0)
    d1 = parsed.descriptor_for(system, 1)
    assert d0.name == "web" and d1.name == "web-1"
    assert d0.memory_mb == 1024 and d0.cpu == 1
    assert d0.disk_source == parsed.manifest.image_href(system)
    assert d0.component_id == "web"
    assert d0.service_id == parsed.service_id


def test_parser_resolves_action_targets():
    parsed = ManifestParser().parse(web_manifest())
    assert parsed.resolve_action_target("web") == "web"
    assert parsed.resolve_action_target("com.shop.web.ref") == "web"
    assert parsed.resolve_action_target("ghost") is None


def test_placement_constraints_derived():
    b = ManifestBuilder("svc")
    b.component("ci", image_mb=1).component("db", image_mb=1)
    b.component("di", image_mb=1, initial=1, minimum=1, maximum=4)
    b.kpi("C", "di", "a.b", default=0)
    b.rule("r", "@a.b > 1", "deployVM(di)")
    b.colocate("ci", "db").anti_colocate("di", "db").per_host_cap("di", 2)
    parsed = ManifestParser().parse(b.build())
    kinds = [type(c).__name__ for c in parsed.placement_constraints()]
    assert kinds == ["Affinity", "AntiAffinity", "ComponentCap"]


# ---------------------------------------------------------------------------
# RuleInterpreter semantics
# ---------------------------------------------------------------------------

def make_interpreter(env, rules, executor=None, defaults=None):
    calls = []

    def default_executor(action, rule):
        calls.append((env.now, rule.name, action.operation.value))
        return True

    interp = RuleInterpreter(
        env, "svc-1", executor=executor or default_executor,
        kpi_defaults=defaults or {},
    )
    for rule in rules:
        interp.install(rule)
    return interp, calls


def measurement(qname, value, t=0.0):
    return Measurement(qname, "svc-1", "probe-x", t, (value,))


def test_rule_fires_when_condition_holds():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    interp, calls = make_interpreter(env, [rule])
    interp.notify(measurement("a.b", 10))
    fired = interp.evaluate_rules()
    assert len(fired) == 1 and fired[0].rule == "up"
    assert calls == [(0.0, "up", "deployVM")]


def test_rule_uses_default_before_first_measurement():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    interp, calls = make_interpreter(env, [rule])
    assert interp.evaluate_rules() == []  # default 0 → condition false
    assert calls == []


def test_rule_without_default_or_record_logs_error():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)")
    interp, calls = make_interpreter(env, [rule])
    interp.evaluate_rules()
    assert calls == []
    assert interp.trace.last(kind="rule.error") is not None


def test_latest_value_wins():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    interp, calls = make_interpreter(env, [rule])
    interp.notify(measurement("a.b", 10, t=0))
    interp.notify(measurement("a.b", 1, t=1))
    assert interp.evaluate_rules() == []


def test_cooldown_prevents_duplicate_response():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0},
                                    time_constraint_ms=5000)
    interp, calls = make_interpreter(env, [rule])
    interp.notify(measurement("a.b", 10))

    def drive(env):
        interp.evaluate_rules()      # fires at t=0
        interp.evaluate_rules()      # within cooldown: suppressed
        yield env.timeout(5)
        interp.evaluate_rules()      # cooldown over: fires again


    env.process(drive(env))
    env.run()
    assert [c[0] for c in calls] == [0.0, 5.0]


def test_failed_action_does_not_start_cooldown():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    attempts = []

    def refusing_executor(action, r):
        attempts.append(env.now)
        return False

    interp, _ = make_interpreter(env, [rule], executor=refusing_executor)
    interp.notify(measurement("a.b", 10))
    interp.evaluate_rules()
    interp.evaluate_rules()
    assert len(attempts) == 2  # no cooldown after refusals
    assert interp.firings == []


def test_events_for_other_services_ignored():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    interp, calls = make_interpreter(env, [rule])
    interp.notify(Measurement("a.b", "OTHER-svc", "p", 0.0, (10,)))
    assert interp.evaluate_rules() == []


def test_periodic_loop_evaluates():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0},
                                    time_constraint_ms=10_000)
    interp, calls = make_interpreter(env, [rule])
    assert interp.eval_period_s == 5.0  # half the tightest time constraint
    interp.notify(measurement("a.b", 10))
    interp.start()
    env.run(until=21)
    # Fires at t=5, cooldown 10 s → next at t=15.
    assert [c[0] for c in calls] == [5.0, 15.0]
    interp.stop()
    env.run(until=100)
    assert len(calls) == 2


def record_pass_instants(interp):
    """A callable returning the instant of every evaluation pass from now on.

    The loop calls ``evaluate_rules`` only at ticks that can observe
    something; the idle ticks in between are counted in ``evaluations``
    without a call. So the ticks after each executed pass, up to the next
    one (or up to now), lie on that pass's grid: its instant plus the
    period then in force, repeated.
    """
    executed = []   # (instant, period, evaluations after the pass)
    evaluate = interp.evaluate_rules

    def recording():
        fired = evaluate()
        executed.append((interp.env.now, interp.eval_period_s,
                         interp.evaluations))
        return fired

    interp.evaluate_rules = recording

    def instants():
        out = []
        for i, (t, period, after) in enumerate(executed):
            out.append(t)
            upto = (executed[i + 1][2] - 1 if i + 1 < len(executed)
                    else interp.evaluations)
            for _ in range(upto - after):
                t += period
                out.append(t)
        return out

    return instants


def period_rules():
    from repro.core.manifest.elasticity import ElasticityRule
    slow = ElasticityRule.from_text("slow", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0},
                                    time_constraint_ms=10_000)
    tight = ElasticityRule.from_text("tight", "@a.b > 4", "deployVM(x)",
                                     defaults={"a.b": 0},
                                     time_constraint_ms=2_000)
    return slow, tight


def test_running_loop_follows_rule_set_period():
    env = Environment()
    slow, tight = period_rules()
    # No rules at all: the 5 s idle default.
    assert RuleInterpreter(env, "svc-0",
                           executor=lambda a, r: True).eval_period_s == 5.0
    interp, _ = make_interpreter(env, [slow])
    instants = record_pass_instants(interp)
    interp.start()
    env.run(until=7)
    assert instants() == [5.0]
    # A tighter constraint installed mid-wait: the wait in progress ends
    # at t=10, and from that pass on the loop waits 1 s (half of 2 s).
    interp.install(tight)
    assert interp.eval_period_s == 1.0
    env.run(until=12.5)
    assert instants() == [5.0, 10.0, 11.0, 12.0]


def test_install_duplicate_and_uninstall():
    """A rule name installs once, and stays installed for the
    interpreter's life: the engine has no uninstall."""
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "1 > 0", "notify()")
    interp, calls = make_interpreter(env, [rule])
    with pytest.raises(ValueError):
        interp.install(rule)
    assert interp.rules == [rule]
    assert not hasattr(interp, "uninstall")


def test_trace_records_elasticity_actions():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    rule = ElasticityRule.from_text("up", "@a.b > 4", "deployVM(x)",
                                    defaults={"a.b": 0})
    interp, _ = make_interpreter(env, [rule])
    interp.notify(measurement("a.b", 10))
    interp.evaluate_rules()
    rec = interp.trace.last(kind="elasticity.action")
    assert rec.details["rule"] == "up"
    assert rec.details["operation"] == "deployVM"


# ---------------------------------------------------------------------------
# End-to-end: ServiceManager deployment + elasticity
# ---------------------------------------------------------------------------

def test_deploy_service_brings_up_initial_instances():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    assert service.instance_count("db") == 1
    assert service.instance_count("web") == 1
    db_vm = service.lifecycle.components["db"].vms[0]
    web_vm = service.lifecycle.components["web"].vms[0]
    assert db_vm.state is VMState.RUNNING
    # Startup order: web submitted only after db was running.
    assert web_vm.submitted_at >= db_vm.running_at


def test_customisation_placeholder_resolved_to_db_ip():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    db_vm = service.lifecycle.components["db"].vms[0]
    web_vm = service.lifecycle.components["web"].vms[0]
    assert web_vm.descriptor.customisation["db_host"] == \
        db_vm.ip_addresses["internal"]


def test_elasticity_scales_up_on_sessions_kpi():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)

    sessions = {"count": 0}
    agent = MonitoringAgent(env, service_id=service.service_id,
                            component="LoadBalancer", network=sm.network)
    agent.expose("com.shop.lb.sessions", lambda: sessions["count"],
                 frequency_s=10)
    agent.expose("com.shop.web.instances",
                 lambda: service.instance_count("web"), frequency_s=10)

    sessions["count"] = 350  # wants ceil-ish 350/100 → up to 4 instances
    env.run(until=env.now + 120)
    assert service.instance_count("web") == 4  # capped at max
    # Scale back down when sessions drop to zero.
    sessions["count"] = 0
    env.run(until=env.now + 200)
    assert service.instance_count("web") == 1  # floor at min


def test_scale_bounds_enforced():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest(max_web=2))
    env.run(until=service.deployment)
    lifecycle = service.lifecycle
    lifecycle.scale_up("web")
    with pytest.raises(ScaleError):
        lifecycle.scale_up("web")
    lifecycle.scale_down("web")
    with pytest.raises(ScaleError):
        lifecycle.scale_down("web")  # at minimum 1


def test_non_replicable_component_cannot_scale():
    b = ManifestBuilder("svc")
    b.component("ci", image_mb=100, replicable=False)
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(b.build())
    env.run(until=service.deployment)
    with pytest.raises(ScaleError):
        service.lifecycle.scale_up("ci")


def test_undeploy_stops_everything_in_reverse_order():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    web_vm = service.lifecycle.components["web"].vms[0]
    db_vm = service.lifecycle.components["db"].vms[0]
    env.run(until=sm.undeploy(service))
    assert web_vm.state is VMState.STOPPED
    assert db_vm.state is VMState.STOPPED
    assert db_vm.stopped_at >= web_vm.stopped_at  # reverse startup order
    assert service.instance_count("web") == 0


def test_undeploy_releases_monitoring_subscription():
    """Undeployed services must not leak routing state in the fabric."""
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    assert sm.network.subscription_count == 1  # the rule interpreter
    env.run(until=sm.undeploy(service))
    assert sm.network.subscription_count == 0
    # late measurements for the dead service are dropped, not delivered
    before = service.interpreter.bindings.store.notifications
    sm.network.publish(Measurement("com.shop.lb.sessions",
                                   service.service_id, "p-9", env.now, (5,)))
    assert service.interpreter.bindings.store.notifications == before


def test_undeploy_is_idempotent():
    """A second undeploy is a no-op returning the same termination process
    — no double-termination, subscriptions stay released."""
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    first = sm.undeploy(service)
    again = sm.undeploy(service)
    assert again is first
    env.run(until=first)
    assert service.instance_count("web") == 0
    assert sm.network.subscription_count == 0
    # still idempotent after termination has completed
    assert sm.undeploy(service) is first
    assert service.instance_count("web") == 0


def test_undeploy_hooks_fire_once_with_termination():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    seen = []
    sm.on_undeploy.append(lambda svc, term: seen.append((svc, term)))
    termination = sm.undeploy(service)
    sm.undeploy(service)        # repeat call must not re-fire hooks
    assert seen == [(service, termination)]


def test_deploy_attributes_tenant_through_accounting():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest(), tenant="acme")
    env.run(until=service.deployment)
    assert service.tenant == "acme"
    assert service.lifecycle.accountant.tenant == "acme"
    # direct deploys stay unattributed
    other = sm.deploy(web_manifest())
    env.run(until=other.deployment)
    assert other.tenant is None and other.lifecycle.accountant.tenant is None


def test_accounting_tracks_instances():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    t0 = env.now
    service.lifecycle.scale_up("web")
    env.run(until=t0 + 100)
    usage = service.lifecycle.accountant.usage("web", t0, t0 + 100)
    assert usage.peak_instances == 2
    assert 1.0 < usage.mean_instances <= 2.0
    assert usage.instance_seconds == pytest.approx(
        usage.mean_instances * 100)


def test_constraints_hold_after_deployment():
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest())
    env.run(until=service.deployment)
    report = service.check_constraints()
    assert report.ok, [str(v) for v in report.violations]
    assert "association" in report.checked


def test_reconfigure_action_parsing():
    from repro.core.service_manager.manager import _parse_resize_args
    assert _parse_resize_args(("cpu=2", "memory_mb=4096")) == {
        "cpu": 2.0, "memory_mb": 4096.0}
    assert _parse_resize_args(("bogus",)) == {}
    assert _parse_resize_args(("cpu=notanumber",)) == {}
    assert _parse_resize_args(("disk=50",)) == {}


def test_reconfigure_through_rule_action():
    b = ManifestBuilder("svc")
    b.component("db", image_mb=100, cpu=1, memory_mb=1024)
    b.kpi("DB", "db", "db.load.level", default=0)
    b.rule("boost", "@db.load.level > 90", "reconfigureVM(db, cpu=2)",
           cooldown_s=1e9)
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(b.build())
    env.run(until=service.deployment)
    service.interpreter.notify(
        Measurement("db.load.level", service.service_id, "p", env.now, (95,)))
    service.interpreter.evaluate_rules()
    db_vm = service.lifecycle.components["db"].vms[0]
    assert db_vm.descriptor.cpu == 2


def test_builtin_time_kpis():
    """§4.2.1: "the current time can be introduced as a monitorable
    parameter if necessary" — rules can gate on simulated wall time."""
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment(initial_time=6 * 3600)  # 06:00
    calls = []
    rule = ElasticityRule.from_text(
        "business-hours-only",
        "(@system.time.timeofday >= 32400) && "    # 09:00
        "(@system.time.timeofday < 61200) && "     # 17:00
        "(@q.size > 4)",
        "deployVM(x)", defaults={"q.size": 0}, cooldown_s=1e9)
    interp = RuleInterpreter(
        env, "svc-1", executor=lambda a, r: calls.append(env.now) or True)
    interp.install(rule)
    interp.notify(Measurement("q.size", "svc-1", "p", env.now, (50,)))

    def drive(env):
        interp.evaluate_rules()          # 06:00 → outside window
        yield env.timeout(4 * 3600)
        interp.evaluate_rules()          # 10:00 → fires
        yield env.timeout(9 * 3600)
        interp.evaluate_rules()          # 19:00 → outside window

    env.process(drive(env))
    env.run()
    assert len(calls) == 1
    assert calls[0] == 10 * 3600


def test_builtin_time_can_be_shadowed_by_measurement():
    from repro.core.manifest.elasticity import ElasticityRule
    env = Environment()
    calls = []
    rule = ElasticityRule.from_text(
        "r", "@system.time.now > 100", "notify()", cooldown_s=1e9)
    interp = RuleInterpreter(
        env, "svc-1", executor=lambda a, r: calls.append(1) or True)
    interp.install(rule)
    # An application publishing under the built-in name takes precedence.
    interp.notify(Measurement("system.time.now", "svc-1", "p", 0.0, (999,)))
    interp.evaluate_rules()
    assert calls == [1]


# ---------------------------------------------------------------------------
# Instance counts over the live VMs
# ---------------------------------------------------------------------------

def full_scan_counts(lifecycle) -> dict:
    """(active, effective) per component, scanning every VM the component
    ever had."""
    return {
        name: (sum(1 for vm in c.vms if vm.is_active),
               sum(1 for vm in c.vms
                   if vm.is_active and vm.vm_id not in c.releasing))
        for name, c in lifecycle.components.items()
    }


def assert_counts_match_full_scan(env, service) -> None:
    lifecycle = service.lifecycle
    expected = full_scan_counts(lifecycle)
    got = {name: (c.active_count, c.effective_count)
           for name, c in lifecycle.components.items()}
    assert got == expected
    for c in lifecycle.components.values():
        # Pruned as read, in deploy order.
        assert c.live == [vm for vm in c.vms if vm.is_active]
    assert env.metrics.value("core.lifecycle.active_instances",
                             service=service.service_id) == sum(
        active for active, _ in expected.values())


def drive_random_lifecycle(seed: int) -> set:
    """Scale, release, fail (provisioning, running, releasing), heal,
    migrate, suspend/resume and crash hosts at random, checking the counts
    after every operation and every run step. Returns the operations that
    took effect."""
    import random
    from repro.cloud.errors import PlacementError
    from tests.setups import (
        CHAOS_TIMINGS,
        make_veem as make_site,
        simple_manifest,
    )
    rng = random.Random(seed)
    env = Environment()
    veem = make_site(env, 3, timings=CHAOS_TIMINGS)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest(minimum=1, initial=2, maximum=6))
    lifecycle = service.lifecycle
    done = set()
    provisioning = (VMState.PENDING, VMState.STAGING, VMState.BOOTING)

    def pick(vms):
        return rng.choice(vms) if vms else None

    for _ in range(80):
        web = lifecycle.components.get("web")
        vms = web.vms if web is not None else []
        op = rng.choice(["up", "up", "down", "down", "fail-provisioning",
                         "fail-running", "fail-releasing", "migrate",
                         "suspend", "resume", "crash-host", "recover",
                         "floor", "wait"])
        try:
            if op == "up":
                lifecycle.scale_up("web")
            elif op == "down":
                lifecycle.scale_down("web")
            elif op == "migrate":
                if lifecycle.migrate_for_balance("web") is None:
                    continue
            elif op == "floor":
                if not lifecycle.ensure_floor():
                    continue
            elif op == "crash-host":
                host = pick([h for h in veem.hosts if not h.failed])
                if host is None or not veem.inject_host_failure(host):
                    continue
            elif op == "recover":
                host = pick([h for h in veem.hosts if h.failed])
                if host is None:
                    continue
                veem.recover_host(host)
            elif op != "wait":
                states = {
                    "fail-provisioning": provisioning,
                    "fail-running": (VMState.RUNNING,),
                    "fail-releasing": tuple(VMState),
                    "suspend": (VMState.RUNNING,),
                    "resume": (VMState.SUSPENDED,),
                }[op]
                vm = pick([v for v in vms if v.is_active
                           and v.state in states
                           and (op != "fail-releasing"
                                or v.vm_id in web.releasing)])
                if vm is None:
                    continue
                if op == "suspend":
                    veem.suspend(vm)
                elif op == "resume":
                    veem.resume(vm)
                else:
                    veem.inject_vm_failure(vm)
        except (ScaleError, PlacementError):     # bounds, or hosts down
            continue
        done.add(op)
        assert_counts_match_full_scan(env, service)
        env.run(until=env.now + rng.choice([0.5, 1.0, 2.0, 5.0, 12.0, 30.0]))
        assert_counts_match_full_scan(env, service)
    if sm.trace.last(kind="instance.heal") is not None:
        done.add("heal")
    return done


@pytest.mark.parametrize("seed", range(12))
def test_live_counts_match_full_scan(seed):
    drive_random_lifecycle(seed)


def test_live_count_drive_covers_every_operation():
    done = set()
    for seed in range(12):
        done |= drive_random_lifecycle(seed)
    assert done >= {"up", "down", "fail-provisioning", "fail-running",
                    "fail-releasing", "migrate", "suspend", "resume",
                    "crash-host", "recover", "heal"}
