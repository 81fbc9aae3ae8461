"""Tests for the multi-tenant provisioning control plane (repro.control)."""

import pytest

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.control.backpressure import RetryPolicy
from repro.control.plane import ControlPlane
from repro.control.requests import Admitted, Queued, Rejected, RequestState
from repro.control.tenants import TenantQuota, TenantUsage
from repro.core.manifest.builder import ManifestBuilder
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2)


def make_veem(env, n_hosts=4, cpu=4, memory_mb=8192):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=cpu, memory_mb=memory_mb,
                           timings=TIMINGS))
    return veem


def host_filler(name, *, instances=1, maximum=None, **placement):
    """A service whose every instance fills exactly one default host."""
    b = ManifestBuilder(name)
    b.component("app", image_mb=256, cpu=4, memory_mb=8192,
                initial=instances, minimum=instances,
                maximum=maximum or instances)
    if placement:
        b.site_placement("app", **placement)
    return b.build()


def drain_all(env, horizon=10_000):
    env.run(until=horizon)


# ---------------------------------------------------------------------------
# Typed outcomes and hard screens
# ---------------------------------------------------------------------------

def test_submit_returns_typed_outcomes():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    first = control.submit("acme", host_filler("svc-a"))
    second = control.submit("acme", host_filler("svc-b"))
    assert isinstance(first, Admitted) and first.site == "s"
    assert first.request.state is RequestState.DEPLOYING
    assert first.request.decided.triggered
    assert isinstance(second, Queued)
    assert second.position == 1 and second.depth == 1
    assert second.request.state is RequestState.QUEUED
    assert not second.request.decided.triggered
    drain_all(env)
    assert first.request.state is RequestState.ACTIVE


def test_unknown_tenant_is_an_error():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 1))
    with pytest.raises(KeyError, match="unknown tenant"):
        control.submit("ghost", host_filler("svc"))


def test_quota_that_can_never_fit_rejects_outright():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 8))
    control.register_tenant("small", quota=TenantQuota(max_instances=2))
    out = control.submit("small", host_filler("big", instances=4))
    assert isinstance(out, Rejected) and "quota" in out.reason
    assert out.request.state is RequestState.REJECTED
    assert out.request.decided.triggered
    # nothing was reserved
    assert control.tenants["small"].usage.services == 0
    assert control.sites[0].headroom == 8


def test_worst_case_beyond_every_pool_rejects_outright():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s1", make_veem(env, 2))
    control.add_site("s2", make_veem(env, 3))
    control.register_tenant("acme")
    out = control.submit("acme", host_filler("huge", instances=4))
    assert isinstance(out, Rejected) and "capacity" in out.reason
    # an elastic ceiling counts, not just the floor
    out = control.submit("acme", host_filler("elastic", maximum=6))
    assert isinstance(out, Rejected) and "capacity" in out.reason
    # ... but a ceiling that fits the bigger site queues/admits normally
    assert isinstance(control.submit("acme", host_filler("ok", maximum=3)),
                      Admitted)


def test_instance_larger_than_host_type_rejects_outright():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 4))
    control.register_tenant("acme")
    big = (ManifestBuilder("oversized")
           .component("app", image_mb=64, cpu=16, memory_mb=4096).build())
    out = control.submit("acme", big)
    assert isinstance(out, Rejected) and "capacity" in out.reason


def test_backpressure_sheds_beyond_max_queue_depth():
    env = Environment()
    control = ControlPlane(env, max_queue_depth=2)
    control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    assert isinstance(control.submit("acme", host_filler("a")), Admitted)
    assert isinstance(control.submit("acme", host_filler("b")), Queued)
    assert isinstance(control.submit("acme", host_filler("c")), Queued)
    shed = control.submit("acme", host_filler("d"))
    assert isinstance(shed, Rejected) and "backpressure" in shed.reason
    assert control.stats()["rejected"] == 1
    assert control.queue_depth == 2


# ---------------------------------------------------------------------------
# Queue draining, fairness, quotas under contention
# ---------------------------------------------------------------------------

def test_release_drains_queue_fifo_within_tenant():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    first = control.submit("acme", host_filler("a"))
    q1 = control.submit("acme", host_filler("b"))
    q2 = control.submit("acme", host_filler("c"))
    drain_all(env, 100)
    control.release(first.request)
    drain_all(env, 200)
    # b (queued first) got the slot; c still waits
    assert q1.request.state is RequestState.ACTIVE
    assert q2.request.state is RequestState.QUEUED
    assert first.request.state is RequestState.RELEASED
    assert q1.request.wait_time and q1.request.wait_time > 0


def test_weighted_round_robin_split_of_freed_capacity():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 3))
    control.register_tenant("filler")
    control.register_tenant("light", weight=1)
    control.register_tenant("heavy", weight=2)
    filler = control.submit("filler", host_filler("wall", instances=3))
    light = [control.submit("light", host_filler(f"l{i}")) for i in range(3)]
    heavy = [control.submit("heavy", host_filler(f"h{i}")) for i in range(3)]
    assert all(isinstance(o, Queued) for o in light + heavy)
    drain_all(env, 100)
    control.release(filler.request)
    drain_all(env, 200)
    # 3 hosts freed at once: one WRR cycle grants light 1, heavy 2.
    assert [o.request.state for o in light] == [
        RequestState.ACTIVE, RequestState.QUEUED, RequestState.QUEUED]
    assert [o.request.state for o in heavy] == [
        RequestState.ACTIVE, RequestState.ACTIVE, RequestState.QUEUED]


def test_blocked_tenant_does_not_stall_others():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 3))
    control.register_tenant("bulky")
    control.register_tenant("nimble")
    wall = control.submit("bulky", host_filler("wall", instances=2))
    big = control.submit("bulky", host_filler("big", instances=2))
    small = control.submit("nimble", host_filler("small"))
    # bulky's 2-host head cannot fit the 1 free host; nimble's 1-host can.
    assert isinstance(wall, Admitted)
    assert isinstance(big, Queued)
    assert isinstance(small, Admitted)


def test_quota_holds_a_tenant_back_while_others_drain():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 4))
    control.register_tenant("capped", quota=TenantQuota(max_services=1))
    control.register_tenant("free")
    held = control.submit("capped", host_filler("c0"))
    over = control.submit("capped", host_filler("c1"))
    assert isinstance(held, Admitted)
    assert isinstance(over, Queued)     # fits capacity, blocked by quota
    other = control.submit("free", host_filler("f0"))
    assert isinstance(other, Admitted)  # quota block is per-tenant only
    drain_all(env, 100)
    control.release(held.request)
    drain_all(env, 200)
    assert over.request.state is RequestState.ACTIVE
    assert control.tenants["capped"].usage.services == 1


# ---------------------------------------------------------------------------
# Federated site selection
# ---------------------------------------------------------------------------

def test_selection_prefers_site_with_most_headroom():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("small", make_veem(env, 1))
    control.add_site("large", make_veem(env, 3))
    control.register_tenant("acme")
    sites = [control.submit("acme", host_filler(f"s{i}")).site
             for i in range(4)]
    # headroom ranking spreads load: large(3) first, then ties resolve to
    # registration order.
    assert sites == ["large", "large", "small", "large"]


def test_selection_skips_a_site_whose_hosts_are_too_small():
    """A site whose host type cannot hold an instance cannot admit the
    service: selection moves on to the next site, and a pin is refused."""
    env = Environment()
    control = ControlPlane(env)
    control.add_site("small", make_veem(env, 4, cpu=2, memory_mb=4096))
    control.add_site("large", make_veem(env, 1))
    control.register_tenant("acme")
    out = control.submit("acme", host_filler("svc"))
    assert isinstance(out, Admitted) and out.site == "large"
    pinned = control.submit("acme", host_filler("pinned"), site="small")
    assert isinstance(pinned, Rejected) and "cannot admit" in pinned.reason


def test_selection_honours_favour_avoid_and_trust():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("shady", make_veem(env, 4),
                     attributes={"trusted": False})
    control.add_site("home", make_veem(env, 2))
    control.add_site("partner", make_veem(env, 2))
    control.register_tenant("acme")
    favoured = control.submit(
        "acme", host_filler("f", favour=["partner"]))
    assert favoured.site == "partner"
    trusted_only = control.submit(
        "acme", host_filler("t", require_trusted=True))
    assert trusted_only.site in ("home", "partner")
    avoided = control.submit(
        "acme", host_filler("a", avoid=["shady", "home"]))
    assert avoided.site == "partner"
    # with every eligible site excluded the request can never fit
    nowhere = control.submit(
        "acme", host_filler("n", avoid=["shady", "home", "partner"]))
    assert isinstance(nowhere, Rejected) and "capacity" in nowhere.reason


# ---------------------------------------------------------------------------
# Retry with backoff (transient deploy failures)
# ---------------------------------------------------------------------------

def overdeclared_plane(env, retry=None):
    """A site whose admission controller *believes* in 2 hosts while only 1
    exists — admitted deployments can then fail with CapacityError, which is
    exactly the transient window the retry loop is for."""
    control = ControlPlane(env, retry=retry or RetryPolicy(
        max_attempts=3, initial_backoff_s=5.0))
    control.add_site("s", make_veem(env, 1), pool_hosts=2)
    control.register_tenant("acme")
    return control


def test_transient_deploy_failure_retries_then_succeeds():
    env = Environment()
    control = overdeclared_plane(
        env, retry=RetryPolicy(max_attempts=5, initial_backoff_s=5.0))
    first = control.submit("acme", host_filler("a"))
    second = control.submit("acme", host_filler("b"))
    assert isinstance(first, Admitted) and isinstance(second, Admitted)
    drain_all(env, 12)      # first is active; second has failed at least once
    control.release(first.request)
    drain_all(env, 10_000)
    assert second.request.state is RequestState.ACTIVE
    assert second.request.attempts > 1
    assert control.stats()["retried"] >= 1
    retries = control.trace.query(source="control", kind="request.retry")
    assert retries and retries[0].details["request"] == "req-2"


def test_retries_exhausted_rejects_and_returns_reservation():
    env = Environment()
    control = overdeclared_plane(
        env, retry=RetryPolicy(max_attempts=2, initial_backoff_s=1.0))
    first = control.submit("acme", host_filler("a"))
    doomed = control.submit("acme", host_filler("b"))
    assert isinstance(doomed, Admitted)
    drain_all(env)          # never release: retries exhaust
    assert first.request.state is RequestState.ACTIVE
    assert doomed.request.state is RequestState.REJECTED
    assert "deploy failed after 2 attempt" in doomed.request.reason
    # reservation returned: quota usage and admission back to just `first`
    assert control.tenants["acme"].usage.services == 1
    assert control.sites[0].admission.admitted == [first.request.manifest]


# ---------------------------------------------------------------------------
# Capacity release paths and observability
# ---------------------------------------------------------------------------

def test_direct_manager_undeploy_still_frees_control_plane_capacity():
    """Capacity accounting hooks the ServiceManager, so an undeploy issued
    below the control plane cannot leak the reservation."""
    env = Environment()
    control = ControlPlane(env)
    site = control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    first = control.submit("acme", host_filler("a"))
    waiting = control.submit("acme", host_filler("b"))
    drain_all(env, 100)
    site.manager.undeploy(first.request.service)        # not control.release
    drain_all(env, 200)
    assert first.request.state is RequestState.RELEASED
    assert waiting.request.state is RequestState.ACTIVE


def test_release_requires_an_active_request():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    out = control.submit("acme", host_filler("a"))
    with pytest.raises(ValueError, match="not active"):
        control.release(out.request)    # still DEPLOYING
    drain_all(env, 100)
    control.release(out.request)
    drain_all(env, 200)
    with pytest.raises(ValueError, match="not active"):
        control.release(out.request)    # already RELEASED


def test_counters_series_and_trace_tell_the_story():
    env = Environment()
    control = ControlPlane(env, max_queue_depth=1)
    control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    first = control.submit("acme", host_filler("a"))
    control.submit("acme", host_filler("b"))
    control.submit("acme", host_filler("c"))            # shed
    drain_all(env, 100)
    control.release(first.request)
    drain_all(env, 1_000)
    stats = control.stats()
    assert {key: stats[key] for key in ("submitted", "admitted", "queued",
                                        "rejected", "retried", "released")
            } == {"submitted": 3, "admitted": 2, "queued": 1, "rejected": 1,
                  "retried": 0, "released": 1}
    assert control.queue_depth == 0
    depth = control.series["queue.depth"]
    assert depth.maximum() == 1 and depth.current == 0
    (waits,) = [summary for name, _labels, _kind, summary
                in env.metrics.collect()
                if name == "control.plane.queue_wait_s"]
    assert waits["count"] == 2
    assert waits["max"] > 0             # the drained request waited
    kinds = {r.kind for r in control.trace.query(source="control")}
    assert {"request.submitted", "request.queued", "request.admitted",
            "request.rejected", "request.active",
            "request.released"} <= kinds
    assert stats["tenants"]["acme"] == {
        "services": 1, "instances": 1, "queued": 0}


def test_tenant_services_are_attributed():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 4))
    control.register_tenant("acme")
    control.register_tenant("globex")
    control.submit("acme", host_filler("a"))
    control.submit("globex", host_filler("g"))
    drain_all(env, 100)
    def services(tenant):
        return [r.service for r in control.active_requests(tenant)
                if r.service is not None]

    acme = services("acme")
    assert [s.tenant for s in acme] == ["acme"]
    assert acme[0].lifecycle.accountant.tenant == "acme"
    assert len(services("globex")) == 1


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def test_tenant_usage_guards_against_double_release():
    from repro.cloud.capacity import demand_envelope
    usage = TenantUsage()
    envelope = demand_envelope(host_filler("x"))
    usage.add(envelope)
    usage.remove(envelope)
    with pytest.raises(ValueError, match="negative"):
        usage.remove(envelope)


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_attempts=5, initial_backoff_s=2.0,
                         multiplier=3.0, max_backoff_s=10.0)
    assert [policy.backoff(a) for a in (1, 2, 3, 4)] == [2.0, 6.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        policy.backoff(0)


def test_duplicate_registration_is_refused():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("s", make_veem(env, 1))
    with pytest.raises(ValueError, match="duplicate site"):
        control.add_site("s", make_veem(env, 1))
    control.register_tenant("acme")
    with pytest.raises(ValueError, match="duplicate tenant"):
        control.register_tenant("acme")


# ---------------------------------------------------------------------------
# Pinned submissions (the shard-replay path)
# ---------------------------------------------------------------------------

def test_pinned_submit_admits_on_the_named_site():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("a", make_veem(env, 1))
    control.add_site("b", make_veem(env, 4))
    control.register_tenant("acme")
    out = control.submit("acme", host_filler("svc"), site="a")
    assert isinstance(out, Admitted) and out.site == "a"
    drain_all(env)
    assert out.request.state is RequestState.ACTIVE


def test_pinned_submit_rejects_instead_of_queueing():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("a", make_veem(env, 1))
    control.register_tenant("acme")
    assert isinstance(control.submit("acme", host_filler("first"),
                                     site="a"), Admitted)
    out = control.submit("acme", host_filler("second"), site="a")
    assert isinstance(out, Rejected)
    assert "cannot admit" in out.reason
    assert control.queue_depth == 0


def test_pinned_submit_respects_site_eligibility():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("a", make_veem(env, 2))
    control.register_tenant("acme")
    manifest = host_filler("svc", avoid=("a",))
    out = control.submit("acme", manifest, site="a")
    assert isinstance(out, Rejected)
    assert "not eligible" in out.reason


def test_pinned_submit_respects_tenant_quota():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("a", make_veem(env, 4))
    control.register_tenant("acme", quota=TenantQuota(max_services=1))
    assert isinstance(control.submit("acme", host_filler("first"),
                                     site="a"), Admitted)
    out = control.submit("acme", host_filler("second"), site="a")
    assert isinstance(out, Rejected)
    assert "quota" in out.reason


def test_pinned_submit_unknown_site_is_an_error():
    env = Environment()
    control = ControlPlane(env)
    control.add_site("a", make_veem(env, 2))
    control.register_tenant("acme")
    with pytest.raises(KeyError):
        control.submit("acme", host_filler("svc"), site="nope")
