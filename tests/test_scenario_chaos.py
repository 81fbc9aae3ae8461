"""Chaos events as first-class DES citizens (§16).

Each event type is exercised against a real stack: hosts crash and come
back with services re-floored, spot preemption reclaims the newest VMs,
correlated site outages take every host down at once, and a network
partition makes a site invisible to federated admission until it heals.
"""

import pytest

from repro.cloud import Host, HypervisorTimings, ImageRepository, VEEM, VMState
from repro.control import Admitted, ControlPlane, Rejected
from repro.core.manifest import ManifestBuilder
from repro.scenarios.chaos import (
    HostCrash,
    NetworkPartition,
    Oversubscribe,
    SiteOutage,
    SpotPreemption,
    event_to_dict,
    install_chaos,
    restrict_event,
    sites_of,
)
from repro.scenarios.invariants import check_no_oversubscription
from repro.sim import Environment, TraceLog

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)


def make_plane(env, sites=2, hosts=3, cores=8):
    trace = TraceLog(env)
    control = ControlPlane(env, trace=trace)
    veems = {}
    for s in range(sites):
        name = f"site-{s}"
        veem = VEEM(env, name=name, trace=trace,
                    repository=ImageRepository(bandwidth_mb_per_s=1000))
        for i in range(hosts):
            veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=cores,
                               memory_mb=16384, timings=TIMINGS))
        control.add_site(name, veem)
        veems[name] = veem
    control.register_tenant("t0")
    return control, veems


def web_manifest(initial=2, minimum=2, maximum=3):
    b = ManifestBuilder("web")
    b.component("web", image_mb=100, cpu=1, memory_mb=1024,
                initial=initial, minimum=minimum, maximum=maximum)
    if maximum > minimum:
        b.kpi("C", "web", "a.b", default=0)
        b.rule("up", "@a.b > 1000000", "deployVM(web)")
    return b.build()


def managers_of(control):
    return {cs.name: cs.manager for cs in control.sites}


# ---------------------------------------------------------------------------
# Event mechanics
# ---------------------------------------------------------------------------

def test_host_crash_fires_and_recovers():
    env = Environment()
    control, veems = make_plane(env)
    out = control.submit("t0", web_manifest(), site="site-0")
    assert isinstance(out, Admitted)
    install_chaos(
        env, (HostCrash(at_s=60.0, site="site-0", recover_after_s=120.0),),
        veems_by_site=veems, control=control,
        managers_by_site=managers_of(control))
    env.run(until=400)
    assert [r.kind for r in control.trace.query(source="chaos")] \
        == ["chaos.host.crash", "chaos.host.recover"]
    assert not veems["site-0"].hosts[0].failed
    # the service healed back to its floor after the crash
    assert out.request.service.instance_count("web") == 2


def test_spot_preemption_reclaims_newest_vms():
    env = Environment()
    control, veems = make_plane(env, sites=1)
    control.submit("t0", web_manifest(), site="site-0")
    env.run(until=60)
    veem = veems["site-0"]
    before = [vm for vm in veem.vms.values() if vm.is_active]
    newest = before[-1]
    install_chaos(env, (SpotPreemption(at_s=10.0, site="site-0", count=1),),
                  veems_by_site=veems, control=control)
    env.run(until=75)
    assert newest.state is VMState.FAILED
    rec = control.trace.last(kind="chaos.preempt")
    assert rec.details["vms"] == [newest.vm_id]
    assert control.trace.query(kind="vm.preempted")


def test_preempt_validates_count():
    env = Environment()
    _control, veems = make_plane(env, sites=1)
    with pytest.raises(ValueError):
        veems["site-0"].preempt(-1)


def test_site_outage_downs_every_host_then_refloors():
    env = Environment()
    control, veems = make_plane(env)
    out = control.submit("t0", web_manifest(), site="site-0")
    env.run(until=60)
    install_chaos(
        env, (SiteOutage(at_s=30.0, sites=("site-0",),
                         recover_after_s=120.0),),
        veems_by_site=veems, control=control,
        managers_by_site=managers_of(control))
    env.run(until=95)   # outage fired, not yet recovered
    assert all(h.failed for h in veems["site-0"].hosts)
    assert out.request.service.instance_count("web") == 0
    env.run(until=400)
    assert not any(h.failed for h in veems["site-0"].hosts)
    recover = control.trace.last(kind="chaos.site.recover")
    assert recover.details["healed"] == 2
    assert out.request.service.instance_count("web") == 2


def test_partition_hides_site_from_admission_until_heal():
    env = Environment()
    control, veems = make_plane(env, sites=2, hosts=1, cores=4)
    install_chaos(
        env, (NetworkPartition(at_s=10.0, sites=("site-1",),
                               heal_after_s=100.0),),
        veems_by_site=veems, control=control)
    env.run(until=20)
    assert control.unreachable == frozenset({"site-1"})
    # pinned at the partitioned site: rejected outright
    out = control.submit("t0", web_manifest(), site="site-1")
    assert isinstance(out, Rejected)
    # federated: lands on the one reachable site
    out = control.submit("t0", web_manifest())
    assert isinstance(out, Admitted) and out.site == "site-0"
    env.run(until=150)
    assert control.unreachable == frozenset()
    out = control.submit("t0", web_manifest(), site="site-1")
    assert isinstance(out, Admitted)
    assert control.trace.query(kind="chaos.partition")
    assert control.trace.query(kind="chaos.heal")


def test_partition_requires_control_plane():
    env = Environment()
    _control, veems = make_plane(env)
    with pytest.raises(ValueError):
        install_chaos(
            env, (NetworkPartition(at_s=1.0, sites=("site-0",)),),
            veems_by_site=veems)


def test_unknown_site_rejected_at_install():
    env = Environment()
    control, veems = make_plane(env)
    with pytest.raises(KeyError):
        install_chaos(env, (HostCrash(at_s=1.0, site="site-9"),),
                      veems_by_site=veems, control=control)


def test_oversubscribe_corrupts_accounting_detectably():
    env = Environment()
    control, veems = make_plane(env, sites=1)
    assert check_no_oversubscription(veems.values()) == []
    install_chaos(env, (Oversubscribe(at_s=5.0, site="site-0",
                                      extra_cpu=2.0),),
                  veems_by_site=veems, control=control)
    env.run(until=10)
    violations = check_no_oversubscription(veems.values())
    assert violations
    assert any("cpu" in str(v) for v in violations)


# ---------------------------------------------------------------------------
# Sharding helpers
# ---------------------------------------------------------------------------

def test_sites_of_and_restrict():
    crash = HostCrash(at_s=1.0, site="site-0")
    assert sites_of(crash) == ("site-0",)
    assert restrict_event(crash, ["site-0"]) is crash
    assert restrict_event(crash, ["site-1"]) is None

    outage = SiteOutage(at_s=1.0, sites=("site-0", "site-1"))
    assert sites_of(outage) == ("site-0", "site-1")
    assert restrict_event(outage, ["site-0", "site-1", "site-2"]) is outage
    narrowed = restrict_event(outage, ["site-1"])
    assert narrowed.sites == ("site-1",)
    assert narrowed.at_s == outage.at_s
    assert restrict_event(outage, ["site-7"]) is None


def test_event_to_dict_is_json_stable():
    assert event_to_dict(HostCrash(at_s=5.0, site="site-0")) == {
        "type": "HostCrash", "at_s": 5.0, "site": "site-0",
        "host_index": 0, "recover_after_s": 0.0}
    out = event_to_dict(SiteOutage(at_s=1.0, sites=("a", "b")))
    assert out["sites"] == ["a", "b"]       # list, not tuple, for JSON
