"""Failure injection and self-healing tests.

§1: the infrastructure must "replicate components and provide additional
resources as demand grows or components become unavailable" — these tests
crash VMs and whole hosts and verify the stack heals: the lifecycle manager
redeploys below-minimum components, the scheduler requeues interrupted jobs,
and placement avoids failed hosts.

Topologies and manifests come from :mod:`tests.setups`; the tests here only
inject faults and assert.
"""

import pytest

from repro.cloud.errors import LifecycleError, PlacementError
from repro.cloud.veeh import Host
from repro.cloud.vm import DeploymentDescriptor, VMState
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.manager import ServiceManager
from repro.grid.jobs import Job, JobState
from repro.sim.kernel import Environment
from tests.setups import (
    FAILURE_TIMINGS,
    build_cluster,
    make_veem,
    simple_manifest,
)
from tests.test_grid_execution import deploy_exec


def failure_veem(env, n_hosts=3):
    return make_veem(env, n_hosts, timings=FAILURE_TIMINGS)


# ---------------------------------------------------------------------------
# Cloud-layer failure mechanics
# ---------------------------------------------------------------------------

def test_vm_failure_releases_resources():
    env = Environment()
    veem = failure_veem(env)
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1,
        disk_source=veem.repository.add("img", 100).href,
        networks=("net",), component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    host = vm.host
    cpu_before = host.cpu_free
    veem.inject_vm_failure(vm)
    assert vm.state is VMState.FAILED
    assert host.cpu_free == cpu_before + 1
    assert veem.networks.get("net").allocated == 0
    rec = veem.trace.last(kind="vm.failed")
    assert rec.details["vm"] == vm.vm_id


def test_vm_failure_during_boot_is_safe():
    """Failing a VM mid-provisioning must not crash the deploy process."""
    env = Environment()
    veem = failure_veem(env)
    href = veem.repository.add("img", 100).href
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=2)  # staging/booting
    assert vm.state in (VMState.STAGING, VMState.BOOTING)
    veem.inject_vm_failure(vm)
    env.run()  # the deploy process must exit quietly
    assert vm.state is VMState.FAILED
    assert vm.running_at is None


def test_vm_failure_on_inactive_rejected():
    env = Environment()
    veem = failure_veem(env)
    href = veem.repository.add("img", 100).href
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    veem.inject_vm_failure(vm)
    with pytest.raises(LifecycleError):
        veem.inject_vm_failure(vm)


def test_host_failure_kills_all_residents():
    env = Environment()
    veem = failure_veem(env, n_hosts=2)
    href = veem.repository.add("img", 100).href
    vms = [veem.submit(DeploymentDescriptor(
        name=f"x{i}", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s")) for i in range(3)]
    env.run(until=env.all_of([vm.on_running for vm in vms]))
    host0 = veem.hosts[0]
    residents = list(host0.vms)
    assert residents
    casualties = veem.inject_host_failure(host0)
    assert set(casualties) == set(residents)
    assert all(vm.state is VMState.FAILED for vm in casualties)
    assert host0.failed and host0.vms == []


def test_failed_host_excluded_from_placement():
    env = Environment()
    veem = failure_veem(env, n_hosts=2)
    href = veem.repository.add("img", 100).href
    veem.inject_host_failure(veem.hosts[0])
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    assert vm.host is veem.hosts[1]
    # All hosts down → placement fails outright.
    veem.inject_host_failure(veem.hosts[1])
    with pytest.raises(PlacementError):
        veem.submit(DeploymentDescriptor(
            name="y", memory_mb=1024, cpu=1, disk_source=href,
            component_id="x", service_id="s"))


def test_host_recovery_restores_placement():
    env = Environment()
    veem = failure_veem(env, n_hosts=1)
    href = veem.repository.add("img", 100).href
    veem.inject_host_failure(veem.hosts[0])
    veem.recover_host(veem.hosts[0])
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    assert vm.state is VMState.RUNNING


def test_unmanaged_host_failure_rejected():
    env = Environment()
    veem = failure_veem(env)
    alien = Host(env, "alien")
    with pytest.raises(PlacementError):
        veem.inject_host_failure(alien)
    with pytest.raises(PlacementError):
        veem.recover_host(alien)


# ---------------------------------------------------------------------------
# Lifecycle self-healing
# ---------------------------------------------------------------------------

def test_failed_fixed_component_is_redeployed():
    env = Environment()
    veem = failure_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest(minimum=1, initial=1, maximum=1))
    env.run(until=service.deployment)
    original = service.lifecycle.components["web"].vms[0]
    veem.inject_vm_failure(original)
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 1
    replacement = [vm for vm in service.lifecycle.components["web"].vms
                   if vm.state is VMState.RUNNING]
    assert len(replacement) == 1
    assert replacement[0] is not original
    heal = sm.trace.last(kind="instance.heal")
    assert heal.details["failed_vm"] == original.vm_id


def test_healing_respects_elastic_floor():
    """An elastic component above its minimum is NOT healed — the rules own
    that capacity decision; below the minimum it is."""
    env = Environment()
    veem = failure_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest(minimum=1, initial=1, maximum=3))
    env.run(until=service.deployment)
    service.lifecycle.scale_up("web")
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 2

    # Kill the extra instance: count 2 → 1 == minimum → no heal.
    extra = service.lifecycle.components["web"].vms[1]
    veem.inject_vm_failure(extra)
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 1
    assert sm.trace.last(kind="instance.heal") is None

    # Kill the last one: 1 → 0 < minimum → heal.
    veem.inject_vm_failure(service.lifecycle.components["web"].vms[0])
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 1
    assert sm.trace.last(kind="instance.heal") is not None


def test_auto_heal_can_be_disabled():
    env = Environment()
    veem = failure_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest())
    env.run(until=service.deployment)
    service.lifecycle.auto_heal = False
    veem.inject_vm_failure(service.lifecycle.components["web"].vms[0])
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 0


def test_scale_down_victim_is_not_healed():
    """Releasing an instance (scale-down) must never trigger healing."""
    env = Environment()
    veem = failure_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest(minimum=1, initial=1, maximum=3))
    env.run(until=service.deployment)
    service.lifecycle.scale_up("web")
    env.run(until=env.now + 60)
    service.lifecycle.scale_down("web")
    env.run(until=env.now + 60)
    assert service.instance_count("web") == 1
    assert sm.trace.last(kind="instance.heal") is None


def test_termination_does_not_heal():
    env = Environment()
    veem = failure_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(simple_manifest())
    env.run(until=service.deployment)
    env.run(until=sm.undeploy(service))
    assert service.instance_count("web") == 0
    assert sm.trace.last(kind="instance.heal") is None


def test_host_failure_heals_whole_service():
    """Every component on a failed host is replaced on surviving hosts."""
    env = Environment()
    veem = failure_veem(env, n_hosts=3)
    sm = ServiceManager(env, veem)
    b = ManifestBuilder("multi")
    b.component("a", image_mb=100, cpu=2, memory_mb=2048)
    b.component("b", image_mb=100, cpu=2, memory_mb=2048)
    b.colocate("b", "a")   # both land on the same host
    service = sm.deploy(b.build())
    env.run(until=service.deployment)
    host = service.lifecycle.components["a"].vms[0].host
    assert service.lifecycle.components["b"].vms[0].host is host
    veem.inject_host_failure(host)
    env.run(until=env.now + 120)
    assert service.instance_count("a") == 1
    assert service.instance_count("b") == 1
    vms = [c.vms[-1] for c in service.lifecycle.components.values()]
    assert all(vm.host is not host for vm in vms)
    # Co-location still holds on the new placement.
    assert service.check_constraints().ok


# ---------------------------------------------------------------------------
# Scheduler node failure / job requeue
# ---------------------------------------------------------------------------

def test_node_failure_requeues_running_job():
    env = Environment()
    veem, sched, cluster = build_cluster(env)
    s1 = deploy_exec(cluster)
    s2 = deploy_exec(cluster)
    env.run(until=30)
    assert sched.node_count == 2
    job = sched.submit(Job(duration_s=500, input_mb=0, output_mb=0))
    env.run(until=40)
    assert job.state is JobState.RUNNING
    victim = next(s for s in (s1, s2) if s.node.busy)
    veem.inject_vm_failure(victim.vm)
    env.run(until=60)
    # Node vanished; the job restarted on the surviving node.
    assert sched.node_count == 1
    assert job.state is JobState.RUNNING
    env.run(until=700)
    assert job.state is JobState.COMPLETED
    rec = sched.trace.last(kind="node.failed")
    assert rec.details["requeued"] == job.job_id


def test_node_failure_while_idle_just_deregisters():
    env = Environment()
    veem, sched, cluster = build_cluster(env)
    service = deploy_exec(cluster)
    env.run(until=30)
    assert sched.node_count == 1
    veem.inject_vm_failure(service.vm)
    env.run(until=40)
    assert sched.node_count == 0
    rec = sched.trace.last(kind="node.failed")
    assert rec.details["requeued"] is None


def test_node_failure_before_registration_is_noop():
    env = Environment()
    veem, sched, cluster = build_cluster(env)
    service = deploy_exec(cluster)
    env.run(until=2)  # still provisioning
    veem.inject_vm_failure(service.vm)
    env.run(until=60)
    assert sched.node_count == 0
    assert sched.trace.last(kind="node.failed") is None
