"""Property-based tests: admission never oversubscribes the pool.

Hypothesis drives randomized churn — submissions of variously-sized
elastic manifests across tenants, interleaved with time advancement and
releases — and checks after every operation that the control plane's
books balance:

* the sum of admitted demand envelopes (worst case) packs into each
  site's pool ceiling, recomputed *from the requests themselves*, not
  trusted from the admission controller's own ledger;
* the admission ledger contains exactly the manifests of live admitted
  requests;
* per-tenant usage equals the sum of that tenant's live envelopes and
  never breaches its quota.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cloud import Host, HypervisorTimings, ImageRepository, VEEM
from repro.cloud.capacity import HostType, demand_envelope
from repro.control import ControlPlane, RequestState, TenantQuota
from repro.core.manifest import ManifestBuilder
from repro.sim import Environment
from tests.oracles.packer import pack

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)
HOST = HostType(cpu_cores=4.0, memory_mb=8192.0)
TENANT_NAMES = ("alpha", "beta", "gamma")

#: states in which a request holds a capacity/quota reservation
LIVE = (RequestState.DEPLOYING, RequestState.ACTIVE)


def make_control(pool_hosts, quotas):
    env = Environment()
    control = ControlPlane(env)
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    for i in range(pool_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=HOST.cpu_cores,
                           memory_mb=HOST.memory_mb, timings=TIMINGS))
    control.add_site("site", veem)
    for name, quota in zip(TENANT_NAMES, quotas):
        control.register_tenant(name, quota=quota)
    return env, control


def manifest_for(seq, cpu, memory_mb, initial, extra):
    return (ManifestBuilder(f"svc-{seq}")
            .component("app", image_mb=128, cpu=cpu, memory_mb=memory_mb,
                       initial=initial, minimum=initial,
                       maximum=initial + extra)
            .build())


def check_books_balance(control):
    """The oversubscription invariant, recomputed from first principles."""
    live = [r for r in control.requests.values() if r.state in LIVE]
    for site in control.sites:
        mine = [r for r in live if r.site == site.name]
        # worst case of every live admitted request packs into the pool
        ceiling = [d for r in mine for d in r.envelope.ceiling]
        hosts_needed = pack(ceiling, site.admission.host) if ceiling else 0
        assert hosts_needed <= site.admission.pool_hosts, (
            f"oversubscribed: {hosts_needed} hosts needed on "
            f"{site.admission.pool_hosts}-host pool")
        # the admission ledger is exactly the live manifests (as multiset)
        assert sorted(m.service_name for m in site.admission.admitted) == \
            sorted(r.manifest.service_name for r in mine)
    for name, tenant in control.tenants.items():
        mine = [r for r in live if r.tenant == name]
        assert tenant.usage.services == len(mine)
        assert tenant.usage.instances == \
            sum(len(r.envelope.ceiling) for r in mine)
        if tenant.quota.max_services is not None:
            assert tenant.usage.services <= tenant.quota.max_services
        if tenant.quota.max_instances is not None:
            assert tenant.usage.instances <= tenant.quota.max_instances


operation = st.one_of(
    st.tuples(st.just("submit"),
              st.integers(0, len(TENANT_NAMES) - 1),   # tenant
              st.sampled_from([1.0, 2.0, 4.0]),        # cpu / instance
              st.sampled_from([1024.0, 4096.0, 8192.0]),  # memory / instance
              st.integers(1, 3),                        # initial instances
              st.integers(0, 2)),                       # elastic headroom
    st.tuples(st.just("release"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("run"), st.integers(1, 60)),
)

quota_strategy = st.sampled_from([
    TenantQuota(),
    TenantQuota(max_services=1),
    TenantQuota(max_services=3),
    TenantQuota(max_instances=4),
])


@settings(max_examples=60, deadline=None)
@given(pool_hosts=st.integers(1, 6),
       quotas=st.tuples(quota_strategy, quota_strategy, quota_strategy),
       ops=st.lists(operation, max_size=40))
def test_admission_never_oversubscribes_under_churn(pool_hosts, quotas, ops):
    env, control = make_control(pool_hosts, quotas)
    seq = 0
    for op in ops:
        if op[0] == "submit":
            _, tenant_idx, cpu, memory_mb, initial, extra = op
            seq += 1
            control.submit(TENANT_NAMES[tenant_idx],
                           manifest_for(seq, cpu, memory_mb, initial, extra))
        elif op[0] == "release":
            active = control.active_requests()
            if active:
                control.release(active[op[1] % len(active)])
        else:
            env.run(until=env.now + op[1])
        check_books_balance(control)
    # quiesce: everything in flight settles, books still balance
    env.run(until=env.now + 5_000)
    check_books_balance(control)
    # liveness floor: every request reached a definite state or still queues
    for request in control.requests.values():
        assert request.state in (RequestState.QUEUED, RequestState.DEPLOYING,
                                 RequestState.ACTIVE, RequestState.REJECTED,
                                 RequestState.RELEASED)
        if request.state is RequestState.QUEUED:
            # whatever still queues must at least be feasible in principle
            assert request.envelope.ceiling


@settings(max_examples=30, deadline=None)
@given(pool_hosts=st.integers(1, 4),
       sizes=st.lists(st.tuples(st.sampled_from([1.0, 2.0, 4.0]),
                                st.integers(1, 3)),
                      min_size=1, max_size=8))
def test_admitted_envelopes_always_pack_into_pool(pool_hosts, sizes):
    """Burst-only variant: no releases, just a pile of submissions."""
    env, control = make_control(
        pool_hosts, (TenantQuota(), TenantQuota(), TenantQuota()))
    for i, (cpu, initial) in enumerate(sizes):
        control.submit(TENANT_NAMES[i % 3],
                       manifest_for(i, cpu, 1024.0, initial, 0))
        check_books_balance(control)
    admitted = [r for r in control.requests.values() if r.state in LIVE]
    ceiling = [d for r in admitted for d in r.envelope.ceiling]
    if ceiling:
        assert pack(ceiling, HOST) <= pool_hosts
    # everything not admitted is queued or terminally rejected, never lost
    assert len(control.requests) == len(sizes)
    envelopes = [demand_envelope(r.manifest) for r in admitted]
    assert all(e.ceiling for e in envelopes)
