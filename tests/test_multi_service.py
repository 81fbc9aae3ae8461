"""Multi-tenancy: several services on one cloud operate independently.

§4.2.1: "At the implementation level, KPIs published within a network are
tagged with a particular service identifier, and rules ... will also be
associated with this same identifier. Multiple instances of an application
service would hence operate independently."
"""

import pytest

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.manager import ServiceManager
from repro.monitoring.agents import MonitoringAgent
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=1, boot_s=5, shutdown_s=1)


def make_sm(env, n_hosts=4):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=16, memory_mb=65536,
                           timings=TIMINGS))
    return ServiceManager(env, veem)


def shop_manifest():
    """The same service definition, deployed twice as separate instances."""
    b = ManifestBuilder("shop")
    b.component("web", image_mb=100, cpu=1, memory_mb=1024,
                initial=1, minimum=1, maximum=4)
    b.kpi("LB", "web", "com.shop.lb.sessions", frequency_s=10, default=0)
    b.kpi("Web", "web", "com.shop.web.instances", frequency_s=10, default=1)
    b.rule("up", "(@com.shop.lb.sessions / 100 > @com.shop.web.instances) "
                 "&& (@com.shop.web.instances < 4)", "deployVM(web)")
    b.rule("down", "(@com.shop.lb.sessions == 0) && "
                   "(@com.shop.web.instances > 1)", "undeployVM(web)",
           cooldown_s=30)
    return b.build()


def attach_agent(env, sm, service, sessions):
    agent = MonitoringAgent(env, service_id=service.service_id,
                            component="LB", network=sm.network)
    agent.expose("com.shop.lb.sessions", lambda: sessions["n"],
                 frequency_s=10)
    agent.expose("com.shop.web.instances",
                 lambda: service.instance_count("web"), frequency_s=10)
    return agent


def test_same_manifest_twice_scales_independently():
    env = Environment()
    sm = make_sm(env)
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))

    load_a, load_b = {"n": 0}, {"n": 0}
    attach_agent(env, sm, tenant_a, load_a)
    attach_agent(env, sm, tenant_b, load_b)

    # Only tenant A gets load: identical qualified names, different
    # service ids — B's rules must not react to A's measurements.
    load_a["n"] = 350
    env.run(until=env.now + 120)
    assert tenant_a.instance_count("web") == 4
    assert tenant_b.instance_count("web") == 1

    # Then only B; A drains back to 1.
    load_a["n"] = 0
    load_b["n"] = 220
    env.run(until=env.now + 200)
    assert tenant_a.instance_count("web") == 1
    assert tenant_b.instance_count("web") >= 2


def test_rule_firings_attributed_to_the_right_service():
    env = Environment()
    sm = make_sm(env)
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))
    load_a = {"n": 350}
    attach_agent(env, sm, tenant_a, load_a)
    attach_agent(env, sm, tenant_b, {"n": 0})
    env.run(until=env.now + 120)
    actions = sm.trace.query(kind="elasticity.action")
    services = {r.details["service"] for r in actions}
    assert services == {"shop-A"}
    assert tenant_b.interpreter.firings == []


def test_accounting_is_per_service():
    env = Environment()
    sm = make_sm(env)
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))
    t0 = env.now
    tenant_a.lifecycle.scale_up("web")
    env.run(until=t0 + 100)
    usage_a = tenant_a.lifecycle.accountant.usage("web", t0, t0 + 100)
    usage_b = tenant_b.lifecycle.accountant.usage("web", t0, t0 + 100)
    assert usage_a.peak_instances == 2
    assert usage_b.peak_instances == 1


def test_constraints_scoped_per_service():
    """Service A's instances never count against B's Association invariant
    or bounds."""
    env = Environment()
    sm = make_sm(env)
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))
    for _ in range(3):
        tenant_a.lifecycle.scale_up("web")
    env.run(until=env.now + 60)
    assert tenant_a.check_constraints().ok
    assert tenant_b.check_constraints().ok


def test_shared_capacity_contention_fails_loudly():
    """Tenants share the physical pool: when it is exhausted, scale-ups are
    refused (logged), not silently dropped.

    Reference behaviour: the seed surfaced contention as a loud
    ``PlacementError``; that contract is preserved (``CapacityError`` is a
    subclass), so code written against the old failure mode keeps working.
    The queue-and-drain alternative lives in :mod:`repro.control`.
    """
    env = Environment()
    sm = make_sm(env, n_hosts=1)
    # Shrink the host so two tenants plus a little headroom fill it.
    sm.veem.hosts[0].cpu_cores = 3.0
    sm.veem.hosts[0].memory_mb = 3 * 1024.0
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))
    tenant_a.lifecycle.scale_up("web")   # third slot: host now full
    env.run(until=env.now + 30)
    from repro.cloud.errors import PlacementError
    with pytest.raises(PlacementError):
        tenant_b.lifecycle.scale_up("web")


def test_shared_capacity_contention_is_typed_capacity_error():
    """Capacity exhaustion (as opposed to constraint infeasibility) is the
    typed, transient ``CapacityError`` on every submit/scale path — the
    signal the control plane queues and retries on."""
    from repro.cloud.errors import CapacityError, PlacementError

    assert issubclass(CapacityError, PlacementError)
    env = Environment()
    sm = make_sm(env, n_hosts=1)
    sm.veem.hosts[0].cpu_cores = 3.0
    sm.veem.hosts[0].memory_mb = 3 * 1024.0
    tenant_a = sm.deploy(shop_manifest(), service_id="shop-A")
    tenant_b = sm.deploy(shop_manifest(), service_id="shop-B")
    env.run(until=env.all_of([tenant_a.deployment, tenant_b.deployment]))
    tenant_a.lifecycle.scale_up("web")
    env.run(until=env.now + 30)
    # Scale path surfaces the typed error ...
    with pytest.raises(CapacityError, match="capacity"):
        tenant_b.lifecycle.scale_up("web")
    # ... and so does a raw VEEM submit of the same descriptor shape.
    descriptor = tenant_b.parsed.descriptor_for(
        tenant_b.parsed.manifest.system("web"), instance=9)
    with pytest.raises(CapacityError):
        sm.veem.submit(descriptor)
