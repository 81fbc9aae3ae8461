"""Unit tests for hosts, VM state machine and deployment descriptors."""

import pytest

from repro.cloud import (
    CapacityError,
    DeploymentDescriptor,
    Host,
    HypervisorTimings,
    ImageRepository,
    LifecycleError,
    VirtualMachine,
    VMState,
)
from repro.sim import Environment


def make_descriptor(name="vm", cpu=1.0, mem=1024.0, **kw):
    kw.setdefault("disk_source", "http://sm/images/base")
    return DeploymentDescriptor(name=name, memory_mb=mem, cpu=cpu, **kw)


# ---------------------------------------------------------------------------
# DeploymentDescriptor
# ---------------------------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(ValueError):
        make_descriptor(cpu=0)
    with pytest.raises(ValueError):
        make_descriptor(mem=-1)
    with pytest.raises(ValueError):
        DeploymentDescriptor(name="", memory_mb=1, cpu=1, disk_source="x")
    with pytest.raises(ValueError):
        DeploymentDescriptor(name="x", memory_mb=1, cpu=1, disk_source="")


def test_descriptor_defaults():
    d = make_descriptor()
    assert d.networks == ()
    assert d.customisation == {}
    assert d.service_id is None


# ---------------------------------------------------------------------------
# VM state machine
# ---------------------------------------------------------------------------

def test_vm_legal_lifecycle_path():
    env = Environment()
    vm = VirtualMachine(env, "vm1", make_descriptor())
    for state in (VMState.STAGING, VMState.BOOTING, VMState.RUNNING,
                  VMState.SHUTTING_DOWN, VMState.STOPPED):
        vm.transition(state)
    assert vm.state is VMState.STOPPED
    assert not vm.is_active


def test_vm_illegal_transition_raises():
    env = Environment()
    vm = VirtualMachine(env, "vm1", make_descriptor())
    with pytest.raises(LifecycleError):
        vm.transition(VMState.RUNNING)  # PENDING → RUNNING skips stages


def test_vm_stopped_is_terminal():
    env = Environment()
    vm = VirtualMachine(env, "vm1", make_descriptor())
    for state in (VMState.STAGING, VMState.BOOTING, VMState.RUNNING,
                  VMState.SHUTTING_DOWN, VMState.STOPPED):
        vm.transition(state)
    with pytest.raises(LifecycleError):
        vm.transition(VMState.RUNNING)


def test_vm_on_running_event_fires():
    env = Environment()
    vm = VirtualMachine(env, "vm1", make_descriptor())
    seen = []

    def waiter(env):
        got = yield vm.on_running
        seen.append((env.now, got))

    def driver(env):
        yield env.timeout(10)
        vm.transition(VMState.STAGING)
        vm.transition(VMState.BOOTING)
        yield env.timeout(30)
        vm.transition(VMState.RUNNING)

    env.process(waiter(env))
    env.process(driver(env))
    env.run()
    assert seen == [(40.0, vm)]
    assert vm.provisioning_time == 40.0


def test_vm_failure_from_any_live_state():
    env = Environment()
    vm = VirtualMachine(env, "vm1", make_descriptor())
    vm.transition(VMState.STAGING)
    vm.transition(VMState.FAILED)
    assert not vm.is_active
    assert vm.provisioning_time is None


# ---------------------------------------------------------------------------
# Host capacity
# ---------------------------------------------------------------------------

def test_host_admission_and_release():
    env = Environment()
    host = Host(env, "h1", cpu_cores=4, memory_mb=8192)
    vm1 = VirtualMachine(env, "vm1", make_descriptor(cpu=2, mem=4096))
    vm2 = VirtualMachine(env, "vm2", make_descriptor(cpu=2, mem=4096))
    host.reserve(vm1)
    host.reserve(vm2)
    assert host.cpu_free == 0
    assert host.memory_free == 0
    vm3 = VirtualMachine(env, "vm3", make_descriptor(cpu=0.5, mem=100))
    with pytest.raises(CapacityError):
        host.reserve(vm3)
    host.release(vm1)
    host.reserve(vm3)
    assert vm3.host is host


def test_host_release_unknown_vm_raises():
    env = Environment()
    host = Host(env, "h1")
    vm = VirtualMachine(env, "vm1", make_descriptor())
    with pytest.raises(CapacityError):
        host.release(vm)


def test_host_exact_fit_accepted():
    env = Environment()
    host = Host(env, "h1", cpu_cores=1, memory_mb=512)
    vm = VirtualMachine(env, "vm1", make_descriptor(cpu=1, mem=512))
    host.reserve(vm)  # must not raise
    assert host.fits(0.0000000001, 0.0000000001) is False or True  # no crash


def test_host_resize_vm():
    env = Environment()
    host = Host(env, "h1", cpu_cores=4, memory_mb=8192)
    vm = VirtualMachine(env, "vm1", make_descriptor(cpu=1, mem=1024))
    host.reserve(vm)
    host.resize(vm, cpu=2, memory_mb=2048)
    assert vm.descriptor.cpu == 2
    assert host.cpu_free == 2
    with pytest.raises(CapacityError):
        host.resize(vm, memory_mb=10000)
    with pytest.raises(ValueError):
        host.resize(vm, cpu=-1)


def test_host_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Host(env, "h", cpu_cores=0)


def test_hypervisor_timings_validation():
    with pytest.raises(ValueError):
        HypervisorTimings(boot_s=-1)


def test_host_image_staging_cost_and_cache():
    env = Environment()
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("base", size_mb=1000)
    host = Host(env, "h1")
    durations = []

    def stage_twice(env):
        t0 = env.now
        yield env.process(host.stage_image(repo, "base", cache=True))
        durations.append(env.now - t0)
        t0 = env.now
        yield env.process(host.stage_image(repo, "base", cache=True))
        durations.append(env.now - t0)

    env.process(stage_twice(env))
    env.run()
    assert durations[0] == pytest.approx(10.0)  # 1000 MB / 100 MB/s
    assert durations[1] == 0.0                  # cache hit
    assert host.images_staged == 1
    assert host.cache_hits == 1


def test_host_staging_without_cache_pays_every_time():
    env = Environment()
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("base", size_mb=500)

    host = Host(env, "h1")
    times = []

    def stage(env):
        for _ in range(3):
            t0 = env.now
            yield env.process(host.stage_image(repo, "base", cache=False))
            times.append(env.now - t0)

    env.process(stage(env))
    env.run()
    assert times == [pytest.approx(5.0)] * 3
    assert host.images_staged == 3


def test_host_prestage_skips_transfer():
    env = Environment()
    repo = ImageRepository()
    repo.add("base", size_mb=4096)
    host = Host(env, "h1")
    host.prestage("base")

    def stage(env):
        yield env.process(host.stage_image(repo, "base"))

    env.process(stage(env))
    env.run()
    assert env.now == 0.0
    assert repo.bytes_served_mb == 0
