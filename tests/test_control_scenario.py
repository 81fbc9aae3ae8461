"""End-to-end control-plane scenario (the PR's acceptance scenario).

Eight tenants submit 40 one-host services against a 25-host pool with a
4-services-per-tenant quota. The plane must admit what fits, queue the
rest, drain the queue as services undeploy, enforce quotas throughout, and
leave every request in a terminal state with queue depth and wait time
observable on the trace.
"""

from collections import defaultdict

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.control.plane import ControlPlane
from repro.control.requests import Admitted, Queued, Rejected, RequestState
from repro.control.tenants import TenantQuota
from repro.core.manifest.builder import ManifestBuilder
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)

POOL_HOSTS = 25
TENANTS = [f"tenant-{i}" for i in range(8)]
SERVICES_PER_TENANT = 5
QUOTA = TenantQuota(max_services=4)


def make_veem(env, n_hosts):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=4, memory_mb=8192,
                           timings=TIMINGS))
    return veem


def one_host_service(name):
    return (ManifestBuilder(name)
            .component("app", image_mb=256, cpu=4, memory_mb=8192)
            .build())


def test_eight_tenants_forty_services_queue_and_drain():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("site", make_veem(env, POOL_HOSTS))
    for name in TENANTS:
        control.register_tenant(name, quota=QUOTA)

    # --- burst: interleaved rounds of submissions, 40 in total ------------
    outcomes = []
    for round_no in range(SERVICES_PER_TENANT):
        for name in TENANTS:
            outcomes.append(control.submit(
                name, one_host_service(f"{name}-svc{round_no}")))
    assert len(outcomes) == 40

    admitted = [o for o in outcomes if isinstance(o, Admitted)]
    queued = [o for o in outcomes if isinstance(o, Queued)]
    assert not any(isinstance(o, Rejected) for o in outcomes)
    # capacity (25 hosts) and quota (8 × 4 = 32) both bind: 25 in, 15 wait
    assert len(admitted) == POOL_HOSTS
    assert len(queued) == 15
    assert control.queue_depth == 15
    for tenant in TENANTS:
        assert control.tenants[tenant].usage.services <= QUOTA.max_services

    env.run(until=2_000)
    assert all(o.request.state is RequestState.ACTIVE for o in admitted)

    # --- drain: undeploy in waves until every request has had its turn ----
    waves = 0
    while control.queue_depth > 0 or control.active_requests():
        for request in sorted(control.active_requests(),
                              key=lambda r: r.admitted_at or 0.0)[:5]:
            control.release(request)
        env.run(until=env.now + 500)
        for tenant in TENANTS:      # quota holds at every wave boundary
            assert control.tenants[tenant].usage.services \
                <= QUOTA.max_services
        waves += 1
        assert waves < 100, "drain did not converge"

    # --- every request reached a terminal state ---------------------------
    assert all(o.request.state is RequestState.RELEASED for o in outcomes)
    stats = control.stats()
    assert stats["submitted"] == 40
    assert stats["admitted"] == 40
    assert stats["released"] == 40
    assert stats["rejected"] == 0
    assert stats["queued"] == 15

    # --- quotas were enforced *throughout*, not just at the end -----------
    # Replay the trace: concurrent admissions per tenant never pass 4.
    concurrent = defaultdict(int)
    peak = defaultdict(int)
    events = control.trace.query(source="control")
    for record in events:
        tenant = record.details.get("tenant")
        if record.kind == "request.admitted":
            concurrent[tenant] += 1
            peak[tenant] = max(peak[tenant], concurrent[tenant])
        elif record.kind == "request.released":
            concurrent[tenant] -= 1
    assert all(peak[t] <= QUOTA.max_services for t in TENANTS)
    # fairness floor: every tenant got all five services through eventually
    admitted_per_tenant = defaultdict(int)
    for record in events:
        if record.kind == "request.admitted":
            admitted_per_tenant[record.details["tenant"]] += 1
    assert all(admitted_per_tenant[t] == SERVICES_PER_TENANT
               for t in TENANTS)

    # --- queue depth on the recorder, wait time in the registry ----------
    depth = control.series["queue.depth"]
    assert depth.maximum() == 15
    assert depth.current == 0
    waits = [o.request.wait_time for o in queued]
    assert all(w is not None and w > 0 for w in waits)
    (wait_summary,) = [summary for name, _labels, _kind, summary
                       in env.metrics.collect()
                       if name == "control.plane.queue_wait_s"]
    assert wait_summary["count"] == 40
    assert wait_summary["max"] == max(waits)
    # wait-time detail rides on the admission trace records too
    waited = [r.details["waited"]
              for r in control.trace.query(source="control",
                                           kind="request.admitted")]
    assert sum(1 for w in waited if w > 0) == 15
