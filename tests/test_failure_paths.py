"""Regression tests for failure-path bugs surfaced by the chaos scenarios.

Three latent bugs, all variations of "a yield raced a failure":

1. ``ServiceLifecycleManager.deploy_service`` waited on ``on_running`` alone
   at the tier barrier, so a host crash that killed a provisioning VM wedged
   the deployment (and any control-plane request driving it) forever.
2. ``VEEM._migrate`` transitioned FAILED→RUNNING after the memory copy if the
   VM died mid-flight, raising ``LifecycleError``.
3. ``VEEM._shutdown`` dereferenced ``vm.host`` after the shutdown delay,
   crashing with ``AttributeError`` when a failure had already evicted the VM.

Each test here fails against the pre-fix code.
"""

from repro.cloud.images import ImageRepository
from repro.cloud.veeh import Host, HypervisorTimings
from repro.cloud.veem import VEEM
from repro.cloud.vm import DeploymentDescriptor, VMState
from repro.control.plane import ControlPlane
from repro.control.requests import Admitted, Queued, RequestState
from repro.core.manifest.builder import ManifestBuilder
from repro.core.service_manager.manager import ServiceManager
from repro.sim.kernel import Environment

TIMINGS = HypervisorTimings(define_s=1, boot_s=10, shutdown_s=2,
                            migrate_suspend_s=2)


def make_veem(env, n_hosts=3, trace=None):
    repo = ImageRepository(bandwidth_mb_per_s=1000)
    veem = VEEM(env, repository=repo, trace=trace)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=TIMINGS))
    return veem


def web_manifest(initial=2, minimum=2, maximum=3, cpu=1):
    b = ManifestBuilder("svc")
    b.component("web", image_mb=100, cpu=cpu, memory_mb=1024,
                initial=initial, minimum=minimum, maximum=maximum)
    return b.build()


def crash_plane(env, n_hosts=2, cores=4):
    control = ControlPlane(env)
    veem = VEEM(env, name="s0", trace=control.trace,
                repository=ImageRepository(bandwidth_mb_per_s=1000))
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=cores, memory_mb=8192,
                           timings=TIMINGS))
    control.add_site("s0", veem)
    control.register_tenant("t")
    return control, veem


# ---------------------------------------------------------------------------
# Bug 1: mid-deploy host crash must not wedge the deployment
# ---------------------------------------------------------------------------

def test_mid_deploy_host_crash_completes_deployment():
    env = Environment()
    control, veem = crash_plane(env)
    out = control.submit("t", web_manifest(), service_id="svc-1")
    assert isinstance(out, Admitted)
    req = out.request

    env.run(until=3)  # both instances still provisioning
    assert req.state is RequestState.DEPLOYING
    victim = next(h for h in veem.hosts if h.vms)
    veem.inject_host_failure(victim)

    env.run(until=600)
    # Pre-fix: the tier barrier waits on the dead VMs' on_running forever and
    # the request never leaves DEPLOYING.
    assert req.state is RequestState.ACTIVE
    assert req.service is not None
    assert req.service.deployment.processed
    assert req.service.instance_count("web") == 2
    # The crashed host's capacity was released by the failure path.
    assert victim.cpu_free == victim.cpu_cores
    # No orphan spans beyond the (by-design open) span of the active request.
    open_kinds = [s.kind for s in control.trace.open_spans()]
    assert open_kinds == ["request"]


def test_queue_redrains_after_crash_then_release():
    """End-to-end re-drain proof: a request wedged by the pre-fix bug would
    hold its capacity forever, starving the queue."""
    env = Environment()
    control, veem = crash_plane(env, n_hosts=1, cores=4)
    first = control.submit("t", web_manifest(initial=3, minimum=3, maximum=3),
                           service_id="svc-1")
    assert isinstance(first, Admitted)
    env.run(until=3)
    veem.inject_host_failure(veem.hosts[0])
    env.run(until=20)
    veem.recover_host(veem.hosts[0])

    env.run(until=600)
    assert first.request.state is RequestState.ACTIVE

    second = control.submit("t", web_manifest(initial=3, minimum=3, maximum=3),
                            service_id="svc-2")
    assert isinstance(second, Queued)

    control.release(first.request)
    env.run(until=1200)
    assert first.request.state is RequestState.RELEASED
    # The freed capacity re-drained the queue.
    assert second.request.state is RequestState.ACTIVE


def test_release_completes_when_instance_failed_mid_boot():
    """The DefaultDriver stop path must not wait on ``on_running`` of a VM
    that died while provisioning."""
    env = Environment()
    veem = make_veem(env)
    sm = ServiceManager(env, veem)
    service = sm.deploy(web_manifest(initial=2, minimum=2, maximum=2))
    service.lifecycle.auto_heal = False
    env.run(until=3)
    booting = service.lifecycle.components["web"].vms[0]
    assert booting.state in (VMState.STAGING, VMState.BOOTING)
    veem.inject_vm_failure(booting)
    env.run(until=service.deployment)
    env.run(until=sm.undeploy(service))
    assert service.instance_count("web") == 0


# ---------------------------------------------------------------------------
# Bug 2: host failure mid-migration must not raise FAILED -> RUNNING
# ---------------------------------------------------------------------------

def test_migration_survives_target_host_crash():
    env = Environment()
    veem = make_veem(env, n_hosts=2)
    href = veem.repository.add("img", 1000).href
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=2048, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    source = vm.host
    target = next(h for h in veem.hosts if h is not source)

    done = veem.migrate(vm, target)
    env.run(until=env.now + 0.5)
    assert vm.state is VMState.MIGRATING
    veem.inject_host_failure(target)  # kills the in-flight VM
    env.run(until=done)  # pre-fix: LifecycleError failed -> running
    assert vm.state is VMState.FAILED
    # Both hosts hold no capacity for the dead VM.
    assert source.cpu_free == source.cpu_cores
    assert all(vm not in h.vms for h in veem.hosts)


# ---------------------------------------------------------------------------
# Bug 3: failure racing a shutdown must not dereference a None host
# ---------------------------------------------------------------------------

def test_shutdown_survives_concurrent_vm_failure():
    env = Environment()
    veem = make_veem(env, n_hosts=1)
    href = veem.repository.add("img", 100).href
    vm = veem.submit(DeploymentDescriptor(
        name="x", memory_mb=1024, cpu=1, disk_source=href,
        component_id="x", service_id="s"))
    env.run(until=vm.on_running)
    host = veem.hosts[0]
    done = veem.shutdown(vm)
    env.run(until=env.now + 0.5)
    assert vm.state is VMState.SHUTTING_DOWN
    veem.inject_vm_failure(vm)
    env.run(until=done)  # pre-fix: AttributeError on vm.host.release
    assert vm.state is VMState.FAILED
    # Capacity released exactly once.
    assert host.cpu_free == host.cpu_cores
    assert host.memory_free == host.memory_mb
