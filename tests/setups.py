"""Integration setups shared by the chaos, failure-recovery and service
manager test suites.

Each builder assembles one small, fully-wired stack — VEEM + hosts, a
service manager, optionally a Condor cluster or monitoring journal — and
returns it (the stage builders as a :class:`types.SimpleNamespace`, so
callers can reach every layer). The test modules stay thin: they build a
stage, inject their one fault, and assert; the topology lives here, once.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.manager import ServiceManager
from repro.grid.execution import CondorExecDriver, VirtualCluster
from repro.grid.scheduler import CondorScheduler
from repro.monitoring.agents import MonitoringAgent
from repro.monitoring.consumers import MeasurementJournal

#: fast-but-nonzero hypervisor latencies the failure suites standardise on
FAILURE_TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
#: same, plus a visible migration suspend window for chaos-under-motion
CHAOS_TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2,
                                  migrate_suspend_s=2)


# ---------------------------------------------------------------------------
# Shared primitives
# ---------------------------------------------------------------------------

def make_veem(env, n_hosts: int = 3, *, timings=FAILURE_TIMINGS,
              trace=None) -> VEEM:
    """A single-site VEEM of identical 8-core/16 GB hosts with a fast
    image repository."""
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo, trace=trace)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    return veem


def make_service_manager(env, n_hosts: int = 4, *,
                         timings=CHAOS_TIMINGS) -> ServiceManager:
    """A ServiceManager over a fresh single-site VEEM."""
    return ServiceManager(env, make_veem(env, n_hosts, timings=timings))


def simple_manifest(minimum: int = 1, initial: int = 1, maximum: int = 3):
    """One elastic web component; the scale-up rule never fires (its
    threshold is absurd), so instance counts move only via healing and
    explicit scale calls."""
    b = ManifestBuilder("svc")
    b.component("web", image_mb=500, cpu=1, memory_mb=1024,
                initial=initial, minimum=minimum, maximum=maximum)
    if maximum > minimum:
        b.kpi("C", "web", "a.b", default=0)
        b.rule("up", "@a.b > 1000000", "deployVM(web)")
    return b.build()


def web_tenant_manifest():
    """A two-instance web tier whose rule can never fire — used to prove
    failures in one tenant leave another untouched."""
    b = ManifestBuilder("web")
    b.component("web", image_mb=100, cpu=1, memory_mb=1024,
                initial=2, minimum=2, maximum=4)
    b.kpi("LB", "web", "web.load.level", default=0)
    b.rule("up", "(@web.load.level > 100) && (1 < 0)", "deployVM(web)")
    return b.build()


def grid_manifest(max_exec: int = 12):
    """The elastic grid service: exec nodes bootstrap from zero and scale
    with queue pressure."""
    b = ManifestBuilder("grid")
    b.component("exec", image_mb=100, cpu=1, memory_mb=1024,
                image_href="http://sm.internal/images/exec",
                initial=0, minimum=0, maximum=max_exec)
    b.kpi("GM", "exec", "grid.queue.size", frequency_s=10, default=0)
    b.kpi("Cluster", "exec", "grid.exec.instances", frequency_s=10,
          default=0)
    b.rule("bootstrap", "(@grid.queue.size > 0) && "
                        "(@grid.exec.instances < 2)", "deployVM(exec)")
    b.rule("up", "(@grid.queue.size / (@grid.exec.instances + 1) > 2) && "
                 f"(@grid.exec.instances < {max_exec})", "deployVM(exec)")
    return b.build()


def build_cluster(env, n_hosts: int = 2):
    """A bare Condor cluster (no service manager): VEEM with a stock
    ``condor-exec`` image, scheduler, and a VirtualCluster."""
    veem = make_veem(env, n_hosts)
    veem.repository.add("condor-exec", size_mb=100)
    sched = CondorScheduler(env, match_delay_s=0.5)
    cluster = VirtualCluster(env, veem, sched, registration_delay_s=5)
    return veem, sched, cluster


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def monitored_web(env, n_hosts: int = 4) -> SimpleNamespace:
    """One deployed web service with a heartbeat agent feeding a
    measurement journal — the stage for monitoring-under-migration."""
    sm = make_service_manager(env, n_hosts)
    b = ManifestBuilder("svc")
    b.component("app", image_mb=100, cpu=1, memory_mb=1024)
    service = sm.deploy(b.build(), service_id="svc-1")
    env.run(until=service.deployment)
    journal = MeasurementJournal()
    journal.subscribe_to(sm.network)
    agent = MonitoringAgent(env, service_id="svc-1", component="app",
                            network=sm.network)
    agent.expose("svc.app.heartbeat", lambda: 1, frequency_s=10)
    return SimpleNamespace(sm=sm, service=service, journal=journal,
                           agent=agent,
                           vm=service.lifecycle.components["app"].vms[0])


def elastic_grid(env, n_hosts: int = 4) -> SimpleNamespace:
    """The elastic grid stack: scheduler + virtual cluster + the grid
    service wired through a CondorExecDriver, with its KPI agent."""
    sm = make_service_manager(env, n_hosts)
    sm.veem.repository.add("exec-img", size_mb=100,
                           href="http://sm.internal/images/exec")
    scheduler = CondorScheduler(env, match_delay_s=0.5, trace=sm.trace)
    cluster = VirtualCluster(env, sm.veem, scheduler,
                             registration_delay_s=5)
    service = sm.deploy(grid_manifest(), service_id="grid-1",
                        drivers={"exec": CondorExecDriver(cluster)})
    env.run(until=service.deployment)
    agent = MonitoringAgent(env, service_id="grid-1", component="GM",
                            network=sm.network)
    agent.expose("grid.queue.size", lambda: scheduler.queue_size,
                 frequency_s=10)
    agent.expose("grid.exec.instances", lambda: cluster.instance_count,
                 frequency_s=10)
    return SimpleNamespace(sm=sm, scheduler=scheduler, cluster=cluster,
                           service=service, agent=agent)


def two_web_tenants(env, n_hosts: int = 4) -> SimpleNamespace:
    """Two identical web tenants on one site, both fully deployed."""
    sm = make_service_manager(env, n_hosts)
    a = sm.deploy(web_tenant_manifest(), service_id="tenant-A")
    b = sm.deploy(web_tenant_manifest(), service_id="tenant-B")
    env.run(until=env.all_of([a.deployment, b.deployment]))
    return SimpleNamespace(sm=sm, a=a, b=b)


# ---------------------------------------------------------------------------
# A planted invariant violation
# ---------------------------------------------------------------------------

def crash_keeping_bookings(monkeypatch) -> None:
    """Make a crashed host keep the CPU and memory its VMs had booked.

    A production :class:`~repro.scenarios.chaos.HostCrash` then leaves
    reservation drift behind (booked capacity no resident VM accounts
    for), which the ``no-oversubscription`` invariant reports: the runner
    and report suites plant their failing cell this way.
    """
    fail = Host.fail

    def fail_keeping_bookings(host):
        booked = host._cpu_used, host._mem_used
        casualties = fail(host)
        host._cpu_used, host._mem_used = booked
        return casualties

    monkeypatch.setattr(Host, "fail", fail_keeping_bookings)
