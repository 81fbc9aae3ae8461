"""Tests for VM-bound execution services and the elastic virtual cluster."""

import pytest

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor, VMState
from repro.grid.execution import (
    CondorExecDriver,
    ExecutionService,
    VirtualCluster,
)
from repro.grid.jobs import Job
from repro.grid.scheduler import CondorScheduler
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=2, boot_s=45, shutdown_s=10)


def build_stack(env, n_hosts=4, per_host=4):
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("condor-exec", size_mb=1000)  # 10 s staging
    veem = VEEM(env, repository=repo)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=per_host,
                           memory_mb=per_host * 2048, timings=TIMINGS))
    sched = CondorScheduler(env, match_delay_s=0.5)
    cluster = VirtualCluster(env, veem, sched, registration_delay_s=20)
    return veem, sched, cluster


def exec_descriptor(instance):
    """The descriptor of one exec VM, named as the lifecycle manager names
    a component's instances."""
    return DeploymentDescriptor(
        name="condor-exec" if instance == 0 else f"condor-exec-{instance}",
        memory_mb=2048, cpu=1,
        disk_source="http://sm.internal/images/condor-exec",
        service_id="polymorph", component_id="CondorExec",
    )


def deploy_exec(cluster) -> ExecutionService:
    """Deploy one exec VM as the paper's runs do: a fresh descriptor
    through :class:`CondorExecDriver`, which submits it and attaches the
    VM to the cluster."""
    vm = CondorExecDriver(cluster).deploy(
        exec_descriptor(len(cluster.veem.vms)))
    service = cluster.services[-1]
    assert service.vm is vm
    return service


def test_execution_service_registers_after_vm_boot():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    deploy_exec(cluster)
    env.run(until=70)
    # 10 staging + 47 boot = 57, +20 registration = 77 → not yet at 70.
    assert sched.node_count == 0
    env.run(until=80)
    assert sched.node_count == 1


def test_registration_delay_validation():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    vm = veem.submit(exec_descriptor(0))
    with pytest.raises(ValueError):
        ExecutionService(env, vm, sched, registration_delay_s=-1)


def test_cluster_runs_jobs_end_to_end():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    for _ in range(2):
        deploy_exec(cluster)
    jobs = [Job(duration_s=100, input_mb=0, output_mb=0) for _ in range(4)]
    sched.submit_many(jobs)
    env.run(until=400)
    assert all(j.state.value == "completed" for j in jobs)
    # 2 nodes × 2 waves of 100 s after ~77 s provisioning.
    assert jobs[-1].completed_at == pytest.approx(77 + 200, abs=10)


def test_instance_count_includes_provisioning_vms():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    deploy_exec(cluster)
    assert cluster.instance_count == 1  # still PENDING, but counted
    assert sched.node_count == 0


def test_release_instance_prefers_idle_node():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    for _ in range(2):
        deploy_exec(cluster)
    env.run(until=100)
    assert sched.node_count == 2
    job = sched.submit(Job(duration_s=500, input_mb=0, output_mb=0))
    env.run(until=110)
    released = cluster.release_instance()
    assert released is not None
    env.run(until=150)
    assert sched.node_count == 1
    assert cluster.instance_count == 1
    # The busy node survived; the job is still running.
    assert job.state.value == "running"


def test_release_busy_node_finishes_job_first():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    deploy_exec(cluster)
    env.run(until=100)
    job = sched.submit(Job(duration_s=200, input_mb=0, output_mb=0))
    env.run(until=110)
    cluster.release_instance()
    env.run(until=250)
    # Drain means the job keeps running rather than being evicted.
    assert job.state.value == "running"
    env.run(until=400)
    # Started ≈ t=100, duration 200 s → completes ≈ t=300.
    assert job.state.value == "completed"
    assert cluster.instance_count == 0 and sched.node_count == 0


def test_release_provisioning_instance():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    deploy_exec(cluster)
    env.run(until=30)  # VM still staging/booting
    released = cluster.release_instance()
    assert released is not None
    assert cluster.instance_count == 0
    env.run(until=300)
    # VM finished booting and was then shut down; never registered.
    assert sched.node_count == 0
    assert released.vm.state is VMState.STOPPED


def test_release_with_no_instances_returns_none():
    env = Environment()
    veem, sched, cluster = build_stack(env)
    assert cluster.release_instance() is None


def test_release_all_deallocates_everything():
    env = Environment()
    veem, sched, cluster = build_stack(env, n_hosts=4)
    for _ in range(6):
        deploy_exec(cluster)
    env.run(until=200)
    assert sched.node_count == 6
    count = 0
    while cluster.release_instance() is not None:
        count += 1
    assert count == 6
    env.run(until=400)
    assert cluster.instance_count == 0 and sched.node_count == 0
    assert all(not vm.is_active for vm in veem.vms.values())


def test_killed_vm_never_registers():
    """A VM whose registration delay is interrupted by shutdown must not
    appear in the scheduler."""
    env = Environment()
    veem, sched, cluster = build_stack(env)
    service = deploy_exec(cluster)
    # Let the VM reach RUNNING (t=57) then kill it during the 20 s
    # registration window.
    env.run(until=60)
    assert service.vm.state is VMState.RUNNING

    def kill(env):
        yield veem.shutdown(service.vm)

    env.process(kill(env))
    env.run(until=200)
    assert sched.node_count == 0


def test_cluster_respects_host_capacity():
    env = Environment()
    veem, sched, cluster = build_stack(env, n_hosts=1, per_host=4)
    for _ in range(4):
        deploy_exec(cluster)
    from repro.cloud.errors import PlacementError
    with pytest.raises(PlacementError):
        deploy_exec(cluster)
