"""Edge-case batch: corners of the API surface not covered elsewhere."""

import pytest

from repro.sim.kernel import Environment


# ---------------------------------------------------------------------------
# codegen identifier handling
# ---------------------------------------------------------------------------

def test_codegen_identifier_sanitisation():
    from repro.core.codegen import _class_name, _identifier

    assert _identifier("queue-size") == "queue_size"
    assert _identifier("2fast") == "_2fast"
    assert _identifier("class") == "class_"
    assert _identifier("") == "_"
    assert _class_name("grid mgmt service") == "GridMgmtService"
    assert _class_name("---") == "Component"


# ---------------------------------------------------------------------------
# AggregatingKPI 'last' and 'min'
# ---------------------------------------------------------------------------

def test_aggregating_kpi_last_and_min():
    from repro.monitoring.agents import AggregatingKPI

    raw = iter([5, 1, 9])
    last = AggregatingKPI(lambda: next(raw), operation="last", window=2)
    assert last() == 5 and last() == 1 and last() == 9

    raw2 = iter([5, 1, 9])
    low = AggregatingKPI(lambda: next(raw2), operation="min", window=2)
    assert low() == 5 and low() == 1 and low() == 1


# ---------------------------------------------------------------------------
# Lifecycle: nowait startup tiers
# ---------------------------------------------------------------------------

def test_nowait_startup_entry_does_not_block_next_tier():
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host, HypervisorTimings
    from repro.cloud.veem import VEEM
    from repro.core.manifest.builder import ManifestBuilder
    from repro.core.manifest.model import StartupEntry
    from repro.core.service_manager.manager import ServiceManager

    b = ManifestBuilder("svc")
    b.component("slow", image_mb=5000)   # long staging
    b.component("fast", image_mb=10)
    manifest = b.build()
    # Rebuild startup with a nowait entry for the slow component.
    from dataclasses import replace
    manifest = replace(manifest, startup=(
        StartupEntry("slow", 0, wait_for_guest=False),
        StartupEntry("fast", 1),
    ))

    env = Environment()
    veem = VEEM(env, repository=ImageRepository(bandwidth_mb_per_s=10))
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384,
                       timings=HypervisorTimings(define_s=1, boot_s=5,
                                                 shutdown_s=1)))
    sm = ServiceManager(env, veem)
    service = sm.deploy(manifest)
    env.run(until=service.deployment)
    slow_vm = service.lifecycle.components["slow"].vms[0]
    fast_vm = service.lifecycle.components["fast"].vms[0]
    # Deployment completed while the nowait component was still staging.
    assert slow_vm.running_at is None
    assert fast_vm.running_at is not None
    env.run(until=slow_vm.on_running)
    assert fast_vm.submitted_at < slow_vm.running_at


# ---------------------------------------------------------------------------
# Manifest model: ServiceManifest without startup section
# ---------------------------------------------------------------------------

def test_startup_order_without_section_is_one_tier():
    from repro.core.manifest.builder import ManifestBuilder

    b = ManifestBuilder("svc")
    b.component("a", image_mb=1)
    b.component("b", image_mb=1)
    manifest = b.build()
    assert manifest.startup_order() == [["a", "b"]]


# ---------------------------------------------------------------------------
# Federation: favoured site preferred but full → spillover
# ---------------------------------------------------------------------------

def test_favoured_full_site_spills_to_next():
    from repro.cloud.federation import FederatedCloud, Site, SiteConstraint
    from repro.cloud.images import ImageRepository
    from repro.cloud.veeh import Host
    from repro.cloud.veem import VEEM
    from repro.cloud.vm import DeploymentDescriptor

    env = Environment()
    cloud = FederatedCloud(env)

    def site(name, hosts):
        repo = ImageRepository()
        repo.add("base", size_mb=10, href="http://x/base")
        veem = VEEM(env, name=f"veem-{name}", repository=repo)
        for i in range(hosts):
            veem.add_host(Host(env, f"{name}-h{i}", cpu_cores=1,
                               memory_mb=1024))
        return cloud.add_site(Site(name=name, veem=veem))

    site("tiny", 1)
    site("big", 4)
    cloud.add_constraint(SiteConstraint(favour=frozenset({"tiny"})))

    def desc(i):
        return DeploymentDescriptor(
            name=f"vm{i}", memory_mb=1024, cpu=1,
            disk_source="http://x/base", service_id="svc",
            component_id="web")

    first = cloud.submit(desc(0))
    assert cloud.site_of(first).name == "tiny"
    second = cloud.submit(desc(1))   # tiny is full → big
    assert cloud.site_of(second).name == "big"


# ---------------------------------------------------------------------------
# Expressions: numeric formatting round trips
# ---------------------------------------------------------------------------

def test_literal_unparse_float_precision():
    from repro.core.manifest.expressions import parse_expression

    expr = parse_expression("@a.b > 0.3333333333333333",
                            defaults={"a.b": 0})
    reparsed = parse_expression(expr.unparse(), defaults={"a.b": 0})
    assert reparsed.evaluate(lambda n: 0.4) == 1.0
    assert reparsed.evaluate(lambda n: 0.3) == 0.0


# ---------------------------------------------------------------------------
# Billing: zero-usage invoice
# ---------------------------------------------------------------------------

def test_invoice_for_component_with_no_usage_window():
    from repro.core.service_manager.accounting import ServiceAccountant
    from repro.core.service_manager.billing import BillingService

    env = Environment()
    acc = ServiceAccountant(env, "svc")
    acc.instance_deployed("web")
    billing = BillingService(acc)

    def later(env):
        yield env.timeout(100)

    env.process(later(env))
    env.run()
    # Invoice a window before anything was deployed... the accountant was
    # created at t=0 and the deploy happened at t=0, so bill [50, 100].
    invoice = billing.invoice(50, 100)
    line = invoice.lines[0]
    assert line.instance_hours == pytest.approx(50 / 3600)


# ---------------------------------------------------------------------------
# Weekly: search records carry scales and days
# ---------------------------------------------------------------------------

def test_weekly_search_record_turnaround():
    from repro.experiments.weekly import SearchRecord

    record = SearchRecord(day=3, started_at=100.0, finished_at=350.0,
                          scale=1.2, jobs=100)
    assert record.turnaround_s == 250.0


# ---------------------------------------------------------------------------
# Network: owner_of unknown address
# ---------------------------------------------------------------------------

def test_network_owner_of_unknown_is_none():
    from repro.cloud.network import VirtualNetwork

    net = VirtualNetwork("n", "10.0.0.0/29")
    assert net.owner_of("10.0.0.5") is None
    assert "10.0.0.5" not in net
