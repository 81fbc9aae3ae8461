"""Integration tests for the VEEM: deployment, shutdown, migration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CapacityError,
    ComponentCap,
    DeploymentDescriptor,
    Host,
    HypervisorTimings,
    ImageRepository,
    LifecycleError,
    Placer,
    PlacementError,
    VEEM,
    VMState,
)
from repro.sim import Environment


TIMINGS = HypervisorTimings(define_s=2, boot_s=45, shutdown_s=10,
                            migrate_suspend_s=5)


def make_veem(env, n_hosts=2, bandwidth=100.0, **veem_kw):
    repo = ImageRepository(bandwidth_mb_per_s=bandwidth)
    repo.add("base", size_mb=1000)  # 10 s transfer at 100 MB/s
    veem = VEEM(env, repository=repo, **veem_kw)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=4, memory_mb=8192,
                           timings=TIMINGS))
    return veem


def make_desc(component="exec", service="svc", networks=(), **kw):
    kw.setdefault("memory_mb", 1024)
    kw.setdefault("cpu", 1)
    return DeploymentDescriptor(
        name=kw.pop("name", component),
        disk_source="http://sm.internal/images/base",
        service_id=service, component_id=component,
        networks=tuple(networks), **kw,
    )


def test_submit_deploys_through_lifecycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    assert vm.state is VMState.PENDING
    env.run(until=vm.on_running)
    assert vm.state is VMState.RUNNING
    # 10 s staging + 2 s define + 45 s boot
    assert vm.provisioning_time == pytest.approx(57.0)
    assert vm.host is veem.hosts[0]


def test_provisioning_breakdown_matches_components():
    env = Environment()
    veem = make_veem(env, bandwidth=50.0)  # 20 s transfer
    vm = veem.submit(make_desc())
    entered = {}
    transition = vm.transition

    def record(new_state):
        entered[new_state] = env.now
        transition(new_state)

    vm.transition = record
    env.run(until=vm.on_running)
    assert entered[VMState.BOOTING] - entered[VMState.STAGING] \
        == pytest.approx(20.0)
    assert entered[VMState.RUNNING] - entered[VMState.BOOTING] \
        == pytest.approx(47.0)


def test_submit_infeasible_fails_fast():
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    with pytest.raises(PlacementError):
        veem.submit(make_desc(memory_mb=999999))


def test_capacity_reserved_at_submit_not_at_running():
    """Two submissions racing for the last slot: the second must fail at
    submit time, not silently oversubscribe."""
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    veem.submit(make_desc(cpu=4, memory_mb=8192))
    with pytest.raises(PlacementError):
        veem.submit(make_desc())


def test_networks_leased_and_in_customisation():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc(networks=["internal"],
                               customisation={"role": "exec"}))
    env.run(until=vm.on_running)
    assert "internal" in vm.ip_addresses
    props = vm.customisation_disk.properties
    assert props["role"] == "exec"
    assert props["ip.internal"] == vm.ip_addresses["internal"]


def test_shutdown_releases_capacity_and_leases():
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    vm = veem.submit(make_desc(networks=["net"]))
    env.run(until=vm.on_running)
    host = vm.host
    cpu_before = host.cpu_free

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run()
    assert vm.state is VMState.STOPPED
    assert host.cpu_free == cpu_before + 1
    assert veem.networks.get("net").allocated == 0


def test_shutdown_takes_hypervisor_time():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    t0 = env.now

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run(until=vm.on_stopped)
    assert env.now - t0 == pytest.approx(10.0)


def test_shutdown_non_running_raises():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.shutdown(vm)  # still PENDING


def test_migrate_moves_vm():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    source, target = veem.hosts[0], veem.hosts[1]
    assert vm.host is source

    def do_migrate(env):
        yield veem.migrate(vm, target)

    env.process(do_migrate(env))
    env.run()
    assert vm.host is target
    assert vm.state is VMState.RUNNING
    assert source.vms == []
    # Migration cost: 1024 MB memory / 100 MB/s + 5 s suspend ≈ 15.24 s
    rec = veem.trace.last(kind="vm.migrated")
    assert rec is not None and rec.details["to_host"] == "h1"


def test_migrate_to_full_host_rejected():
    env = Environment()
    veem = make_veem(env)
    filler = veem.submit(make_desc(cpu=4, memory_mb=8192))
    vm = veem.submit(make_desc())
    env.run(until=env.all_of([filler.on_running, vm.on_running]))
    with pytest.raises(PlacementError):
        veem.migrate(vm, veem.hosts[0])


def test_migrate_foreign_host_rejected():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    foreign = Host(env, "alien")
    with pytest.raises(PlacementError):
        veem.migrate(vm, foreign)


def test_reconfigure_running_vm():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc(cpu=1, memory_mb=1024))
    env.run(until=vm.on_running)
    veem.reconfigure(vm, cpu=2, memory_mb=2048)
    assert vm.descriptor.cpu == 2
    rec = veem.trace.last(kind="vm.reconfigure")
    assert rec.details["cpu"] == 2


def test_reconfigure_non_running_raises():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.reconfigure(vm, cpu=2)


def test_placement_constraints_enforced_by_veem():
    env = Environment()
    repo = ImageRepository()
    repo.add("base", size_mb=100)
    veem = VEEM(env, repository=repo,
                placer=Placer(constraints=[ComponentCap("exec", 1)]))
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384))
    veem.submit(make_desc(component="exec"))
    with pytest.raises(PlacementError):
        veem.submit(make_desc(component="exec"))


def test_trace_records_full_lifecycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)

    def do_shutdown(env):
        yield veem.shutdown(vm)

    env.process(do_shutdown(env))
    env.run()
    kinds = [r.kind for r in veem.trace.query()]
    assert kinds == ["vm.submit", "vm.running", "vm.shutdown.request",
                     "vm.stopped"]


def test_duplicate_host_name_rejected():
    env = Environment()
    veem = make_veem(env)
    with pytest.raises(ValueError):
        veem.add_host(Host(env, "h0"))


def test_image_caching_mode_amortises_staging():
    env = Environment()
    veem = make_veem(env, cache_images=True)
    vm1 = veem.submit(make_desc())
    env.run(until=vm1.on_running)
    vm2 = veem.submit(make_desc())  # lands on h0 again (first fit)
    t0 = env.now
    env.run(until=vm2.on_running)
    # Second deploy on the same host skips the 10 s image transfer.
    assert env.now - t0 == pytest.approx(47.0)


def test_suspend_and_resume_cycle():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    host = vm.host
    cpu_when_running = host.cpu_free

    def cycle(env):
        yield veem.suspend(vm)
        assert vm.state is VMState.SUSPENDED
        # Reservation retained while suspended.
        assert host.cpu_free == cpu_when_running
        yield env.timeout(100)
        yield veem.resume(vm)

    t0 = env.now
    env.process(cycle(env))
    env.run()
    assert vm.state is VMState.RUNNING
    # suspend 5? timings: TIMINGS has no suspend/resume → defaults 8 + 6.
    assert env.now - t0 == pytest.approx(8 + 100 + 6)
    kinds = [r.kind for r in veem.trace.query()
             if "suspend" in r.kind or "resume" in r.kind]
    assert kinds == ["vm.suspend.request", "vm.suspended",
                     "vm.resume.request", "vm.resumed"]


def test_suspend_wrong_state_rejected():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    with pytest.raises(LifecycleError):
        veem.suspend(vm)  # still PENDING
    env.run(until=vm.on_running)
    with pytest.raises(LifecycleError):
        veem.resume(vm)  # not suspended


def test_suspended_vm_can_shut_down():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)

    def run(env):
        yield veem.suspend(vm)
        vm.transition(VMState.SHUTTING_DOWN)
        yield env.timeout(1)
        vm.host.release(vm)
        vm.transition(VMState.STOPPED)

    env.process(run(env))
    env.run()
    assert vm.state is VMState.STOPPED


def test_resume_does_not_refire_on_running():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    env.run(until=vm.on_running)
    first_running_at = vm.running_at

    def cycle(env):
        yield veem.suspend(vm)
        yield veem.resume(vm)

    env.process(cycle(env))
    env.run()
    # on_running is a one-shot event; resuming must not try to re-fire it.
    assert vm.running_at == first_running_at
    assert vm.state is VMState.RUNNING


# ---------------------------------------------------------------------------
# The live-fleet census
# ---------------------------------------------------------------------------

def test_census_counts_submitted_fleet():
    env = Environment()
    veem = make_veem(env)
    vm = veem.submit(make_desc())
    assert veem.active_vm_count == 1
    env.run(until=vm.on_running)
    veem.shutdown(vm)
    env.run()
    assert vm.state is VMState.STOPPED
    assert veem.active_vm_count == 0


def _pick(vms, index):
    return vms[index % len(vms)] if vms else None


_operations = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 1)),
    st.tuples(st.just("shutdown"), st.integers(0, 63)),
    st.tuples(st.just("migrate"), st.integers(0, 63), st.integers(0, 2)),
    st.tuples(st.just("suspend"), st.integers(0, 63)),
    st.tuples(st.just("resume"), st.integers(0, 63)),
    st.tuples(st.just("fail_vm"), st.integers(0, 63)),
    st.tuples(st.just("fail_host"), st.integers(0, 2)),
    st.tuples(st.just("preempt"), st.integers(0, 3)),
), min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(ops=_operations,
       pauses=st.lists(st.sampled_from([0.5, 4.0, 15.0, 60.0]),
                       min_size=40, max_size=40))
def test_census_matches_fleet_under_every_exit(ops, pauses):
    """However VMs leave — shutdown, VM or host failure, preemption —
    ``active_vm_count`` equals the live VMs, and ``preempt(k)`` reclaims
    the ``k`` most recently submitted of them. Each operation is followed
    by a pause, so the next one can land mid-staging, mid-boot,
    mid-migration or mid-shutdown."""
    env = Environment()
    veem = make_veem(env, n_hosts=3)

    def in_state(state):
        return [vm for vm in veem.vms.values() if vm.state is state]

    def live():
        return [vm for vm in veem.vms.values() if vm.is_active]

    for op, pause in zip(ops, pauses):
        kind = op[0]
        if kind == "submit":
            try:
                veem.submit(make_desc(component=("exec", "dbms")[op[1]]))
            except CapacityError:
                pass
        elif kind == "shutdown":
            vm = _pick(in_state(VMState.RUNNING), op[1])
            if vm is not None:
                veem.shutdown(vm)
        elif kind == "migrate":
            vm = _pick(in_state(VMState.RUNNING), op[1])
            target = veem.hosts[op[2]]
            if vm is not None and target is not vm.host and target.fits(
                    vm.descriptor.cpu, vm.descriptor.memory_mb):
                veem.migrate(vm, target)
        elif kind == "suspend":
            vm = _pick(in_state(VMState.RUNNING), op[1])
            if vm is not None:
                veem.suspend(vm)
        elif kind == "resume":
            vm = _pick(in_state(VMState.SUSPENDED), op[1])
            if vm is not None:
                veem.resume(vm)
        elif kind == "fail_vm":
            vm = _pick(live(), op[1])
            if vm is not None:
                veem.inject_vm_failure(vm)
        elif kind == "fail_host":
            host = veem.hosts[op[1]]
            if host.failed:
                veem.recover_host(host)
            else:
                veem.inject_host_failure(host)
        else:
            newest = live()[::-1]
            assert veem.preempt(op[1]) == newest[:op[1]]
        assert veem.active_vm_count == len(live())
        env.run(until=env.now + pause)
        assert veem.active_vm_count == len(live())
