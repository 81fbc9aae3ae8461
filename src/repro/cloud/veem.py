"""The Virtual Execution Environment Manager (VEEM).

"A VEEM controls the activation of virtualised operating systems, migration,
replication and de-activation. A VEEM typically controls multiple VEEHs
within one site." (§2). The reference implementation in the paper is
OpenNebula v1.2; the operation set modelled on it is the one elasticity-rule
actions invoke: "submission, shutdown, migration, reconfiguration, etc. of
VMs" (§4.2.1).

Deployment follows §5.1.1 steps 5–7: the VEEM receives a deployment
descriptor, selects a host per its placement policy (subject to the service's
constraints), stages the base disk, boots the VEE, and attaches the
customisation disk so the Activation Engine can configure the guest.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..sim.kernel import Environment, Process
from ..sim.tracing import TraceLog
from .errors import LifecycleError, PlacementError
from .images import ImageRepository
from .network import NetworkFabric
from .placement import Placer
from .veeh import Host
from .vm import DeploymentDescriptor, VirtualMachine, VMState

__all__ = ["VEEM"]


class VEEM:
    """Manages the VEE lifecycle across the hosts of one site."""

    def __init__(self, env: Environment, *, name: str = "veem",
                 repository: Optional[ImageRepository] = None,
                 placer: Optional[Placer] = None,
                 trace: Optional[TraceLog] = None):
        self.env = env
        self.name = name
        # Explicit None checks: an empty ImageRepository is falsy (__len__),
        # so `repository or ...` would silently discard a configured repo.
        self.repository = (repository if repository is not None
                           else ImageRepository())
        self.placer = placer if placer is not None else Placer()
        self.trace = trace if trace is not None else TraceLog(env)
        self.hosts: list[Host] = []
        self.networks = NetworkFabric()
        self._vm_seq = itertools.count(1)
        self.vms: dict[str, VirtualMachine] = {}
        #: the VMs of ``vms`` not yet seen STOPPED or FAILED, in submission
        #: order; both states are terminal, so reads prune it and cost the
        #: live fleet, not every VM the site ever had
        self._live: list[VirtualMachine] = []
        # Registry-owned operation counters (these paths are not hot — a VM
        # operation costs simulated seconds) plus views over the placer's
        # plain tallies.
        metrics = env.metrics
        self._m_submitted = metrics.counter("cloud.veem.submitted", site=name)
        self._m_refused = metrics.counter("cloud.veem.placement_refused",
                                          site=name)
        self._m_shutdowns = metrics.counter("cloud.veem.shutdowns", site=name)
        self._m_migrations = metrics.counter("cloud.veem.migrations",
                                             site=name)
        self._m_failures = metrics.counter("cloud.veem.vm_failures",
                                           site=name)
        self._m_provision = metrics.histogram("cloud.veem.provisioning_s",
                                              site=name)
        placer = self.placer
        metrics.register_view("cloud.placement.selections",
                              lambda: placer.selections, site=name)
        metrics.register_view("cloud.placement.capacity_failures",
                              lambda: placer.capacity_failures, site=name)
        metrics.register_view("cloud.placement.constraint_failures",
                              lambda: placer.constraint_failures, site=name)

    # ------------------------------------------------------------------
    # Site assembly
    # ------------------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if any(h.name == host.name for h in self.hosts):
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts.append(host)
        return host

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _live_vms(self) -> list[VirtualMachine]:
        live = self._live = [vm for vm in self._live if vm.is_active]
        return live

    @property
    def active_vm_count(self) -> int:
        """Live fleet size: VMs submitted and not yet STOPPED or FAILED."""
        return len(self._live_vms())

    # ------------------------------------------------------------------
    # Operations (the interface elasticity actions are expressed against)
    # ------------------------------------------------------------------
    def submit(self, descriptor: DeploymentDescriptor) -> VirtualMachine:
        """Accept a deployment descriptor and start the deployment process.

        Returns immediately with the new VM in PENDING state; callers wait on
        ``vm.on_running``. Placement happens synchronously so infeasible
        requests fail fast: :class:`CapacityError` when the site's capacity
        is exhausted (transient — clears when something undeploys), plain
        :class:`PlacementError` when a placement constraint excludes every
        host. Every scale path that ends in a submit (elasticity actions,
        ``ServiceLifecycleManager.scale_up``, federation routing) surfaces
        the same typed errors.
        """
        vm_id = f"{self.name}-vm{next(self._vm_seq)}"
        vm = VirtualMachine(self.env, vm_id, descriptor)
        # The deploy span covers submission → RUNNING; it nests under the
        # ambient span (a rule firing, a control-plane request) when one is
        # active, so the causal chain crosses the VEEM boundary.
        span = self.trace.span(self.name, "vm.deploy", vm=vm_id,
                               component=descriptor.component_id,
                               service=descriptor.service_id)
        try:
            host = self.placer.select(self.hosts, descriptor)  # may raise
            host.reserve(vm)
        except Exception:
            self._m_refused.inc()
            self.trace.close_span(span, "refused")
            raise
        vm.span = span
        span.details["host"] = host.name
        self._m_submitted.inc()
        self.vms[vm_id] = vm
        self._live.append(vm)
        self.trace.emit_in(span, self.name, "vm.submit", vm=vm_id,
                           component=descriptor.component_id,
                           service=descriptor.service_id, host=host.name)
        self.env.process(self._deploy(vm, host), name=f"deploy:{vm_id}")
        return vm

    def shutdown(self, vm: VirtualMachine) -> Process:
        """Orderly shutdown; returns the process to join on."""
        if vm.state is not VMState.RUNNING:
            raise LifecycleError(
                f"cannot shut down {vm.vm_id} in state {vm.state.value}"
            )
        span = self.trace.span(self.name, "vm.shutdown", vm=vm.vm_id,
                               component=vm.descriptor.component_id,
                               service=vm.descriptor.service_id)
        self.trace.emit_in(span, self.name, "vm.shutdown.request",
                           vm=vm.vm_id,
                           component=vm.descriptor.component_id,
                           service=vm.descriptor.service_id)
        self._m_shutdowns.inc()
        return self.env.process(self._shutdown(vm, span),
                                name=f"shutdown:{vm.vm_id}")

    def migrate(self, vm: VirtualMachine, target: Host) -> Process:
        """Migrate a running VM to another host of this site."""
        if vm.state is not VMState.RUNNING:
            raise LifecycleError(
                f"cannot migrate {vm.vm_id} in state {vm.state.value}"
            )
        if target not in self.hosts:
            raise PlacementError(f"host {target.name!r} not managed by {self.name}")
        if not target.fits(vm.descriptor.cpu, vm.descriptor.memory_mb):
            raise PlacementError(
                f"host {target.name} cannot fit {vm.vm_id} for migration"
            )
        span = self.trace.span(self.name, "vm.migrate", vm=vm.vm_id,
                               from_host=vm.host.name, to_host=target.name)
        self.trace.emit_in(span, self.name, "vm.migrate.request",
                           vm=vm.vm_id,
                           from_host=vm.host.name, to_host=target.name)
        self._m_migrations.inc()
        return self.env.process(self._migrate(vm, target, span),
                                name=f"migrate:{vm.vm_id}")

    def suspend(self, vm: VirtualMachine) -> Process:
        """Suspend a running VM to disk; its reservation is retained so it
        can be resumed on the same host without re-placement."""
        if vm.state is not VMState.RUNNING:
            raise LifecycleError(
                f"cannot suspend {vm.vm_id} in state {vm.state.value}"
            )
        self.trace.emit(self.name, "vm.suspend.request", vm=vm.vm_id)
        return self.env.process(self._suspend(vm), name=f"suspend:{vm.vm_id}")

    def resume(self, vm: VirtualMachine) -> Process:
        """Resume a suspended VM."""
        if vm.state is not VMState.SUSPENDED:
            raise LifecycleError(
                f"cannot resume {vm.vm_id} in state {vm.state.value}"
            )
        self.trace.emit(self.name, "vm.resume.request", vm=vm.vm_id)
        return self.env.process(self._resume_vm(vm),
                                name=f"resume:{vm.vm_id}")

    def reconfigure(self, vm: VirtualMachine, *, cpu: Optional[float] = None,
                    memory_mb: Optional[float] = None) -> None:
        """Resize a running VM's reservation in place."""
        if vm.state is not VMState.RUNNING:
            raise LifecycleError(
                f"cannot reconfigure {vm.vm_id} in state {vm.state.value}"
            )
        vm.host.resize(vm, cpu=cpu, memory_mb=memory_mb)
        self.trace.emit(self.name, "vm.reconfigure", vm=vm.vm_id,
                        cpu=vm.descriptor.cpu, memory_mb=vm.descriptor.memory_mb)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def inject_vm_failure(self, vm: VirtualMachine) -> None:
        """Crash one VM (guest kernel panic, OOM kill, ...)."""
        if not vm.is_active:
            raise LifecycleError(f"{vm.vm_id} is not active")
        host = vm.host
        if host is not None:
            host.release(vm)
        self.networks.release_all(vm.vm_id)
        vm.transition(VMState.FAILED)
        self._m_failures.inc()
        if vm.span is not None and not vm.span.closed:
            self.trace.close_span(vm.span, "failed")
        self.trace.emit(self.name, "vm.failed", vm=vm.vm_id,
                        component=vm.descriptor.component_id,
                        service=vm.descriptor.service_id,
                        host=host.name if host else None)

    def inject_host_failure(self, host: Host) -> list[VirtualMachine]:
        """Fail a whole host; every resident VM dies with it."""
        if host not in self.hosts:
            raise PlacementError(f"host {host.name!r} not managed by {self.name}")
        casualties = host.fail()
        for vm in casualties:
            self.networks.release_all(vm.vm_id)
            self._m_failures.inc()
            if vm.span is not None and not vm.span.closed:
                self.trace.close_span(vm.span, "failed")
            self.trace.emit(self.name, "vm.failed", vm=vm.vm_id,
                            component=vm.descriptor.component_id,
                            service=vm.descriptor.service_id,
                            host=host.name, cause="host-failure")
        self.trace.emit(self.name, "host.failed", host=host.name,
                        casualties=len(casualties))
        return casualties

    def preempt(self, count: int = 1) -> list[VirtualMachine]:
        """Spot-market reclamation: fail up to ``count`` active VMs.

        Reclaims the most recently submitted instances first — the usual
        spot semantics, and the gentlest on long-running tenants. Returns
        the victims, preemption order. Deterministic: victims come from
        submission order, never from a clock or RNG.
        """
        if count < 0:
            raise ValueError("preempt count must be non-negative")
        victims = self._live_vms()[::-1][:count]
        for vm in victims:
            self.trace.emit(self.name, "vm.preempted", vm=vm.vm_id,
                            component=vm.descriptor.component_id,
                            service=vm.descriptor.service_id,
                            host=vm.host.name if vm.host else None)
            self.inject_vm_failure(vm)
        return victims

    def recover_host(self, host: Host) -> None:
        if host not in self.hosts:
            raise PlacementError(f"host {host.name!r} not managed by {self.name}")
        host.recover()
        self.trace.emit(self.name, "host.recovered", host=host.name)

    # ------------------------------------------------------------------
    # Lifecycle processes
    # ------------------------------------------------------------------
    def _deploy(self, vm: VirtualMachine, host: Host):
        d = vm.descriptor
        # Networks: lease an address on every declared logical network; the
        # leases go into the customisation (OVF environment) data so the
        # Activation Engine can configure the guest (§5.1.1 step 7).
        for net_name in d.networks:
            net = self.networks.ensure(net_name)
            vm.ip_addresses[net_name] = net.allocate(vm.vm_id)

        vm.transition(VMState.STAGING)
        image = self.repository.resolve_href(d.disk_source)
        yield self.env.process(
            host.stage_image(self.repository, image.image_id),
            name=f"stage:{vm.vm_id}",
        )
        if not vm.is_active:
            return  # failure injected while the image was staging

        vm.transition(VMState.BOOTING)
        custom = dict(d.customisation)
        custom.update({f"ip.{k}": v for k, v in vm.ip_addresses.items()})
        vm.customisation_disk = self.repository.make_customisation_disk(custom)
        yield self.env.timeout(host.timings.define_s + host.timings.boot_s)
        if not vm.is_active:
            return  # failure injected while the guest was booting

        vm.transition(VMState.RUNNING)
        self._m_provision.observe(vm.provisioning_time)
        self.trace.emit_in(vm.span, self.name, "vm.running", vm=vm.vm_id,
                           component=d.component_id, service=d.service_id,
                           host=host.name,
                           provisioning_time=vm.provisioning_time)
        self.trace.close_span(vm.span, "ok",
                              provisioning_time=vm.provisioning_time)

    def _shutdown(self, vm: VirtualMachine, span=None):
        vm.transition(VMState.SHUTTING_DOWN)
        yield self.env.timeout(vm.host.timings.shutdown_s)
        if not vm.is_active:
            # Host crash / injected fault beat the shutdown to it: the
            # failure path already released capacity and networks, and
            # ``vm.host`` is gone.
            if span is not None and not span.closed:
                self.trace.close_span(span, "failed")
            return
        host = vm.host
        host.release(vm)
        self.networks.release_all(vm.vm_id)
        vm.transition(VMState.STOPPED)
        self.trace.emit(self.name, "vm.stopped", vm=vm.vm_id,
                        component=vm.descriptor.component_id,
                        service=vm.descriptor.service_id, host=host.name)
        if span is not None:
            self.trace.close_span(span, "ok")

    def _suspend(self, vm: VirtualMachine):
        yield self.env.timeout(vm.host.timings.suspend_s)
        if vm.state is VMState.RUNNING:  # not failed meanwhile
            vm.transition(VMState.SUSPENDED)
            self.trace.emit(self.name, "vm.suspended", vm=vm.vm_id)

    def _resume_vm(self, vm: VirtualMachine):
        yield self.env.timeout(vm.host.timings.resume_s)
        if vm.state is VMState.SUSPENDED:
            vm.transition(VMState.RUNNING)
            self.trace.emit(self.name, "vm.resumed", vm=vm.vm_id)

    def _migrate(self, vm: VirtualMachine, target: Host, span=None):
        source = vm.host
        vm.transition(VMState.MIGRATING)
        # Reserve on the target first so capacity can't be stolen mid-flight.
        source.release(vm)
        target.reserve(vm)
        # Memory-copy cost: shared NFS storage means the disk stays put; the
        # dominant cost is transferring guest memory plus suspend/resume.
        copy_time = vm.descriptor.memory_mb / self.repository.bandwidth_mb_per_s
        yield self.env.timeout(copy_time + target.timings.migrate_suspend_s)
        if not vm.is_active:
            # The VM (or its target host) failed mid-copy; the failure path
            # already reclaimed whatever capacity it held.
            if span is not None and not span.closed:
                self.trace.close_span(span, "failed")
            return
        vm.transition(VMState.RUNNING)
        self.trace.emit(self.name, "vm.migrated", vm=vm.vm_id,
                        from_host=source.name, to_host=target.name)
        if span is not None:
            self.trace.close_span(span, "ok")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (f"<VEEM {self.name} hosts={len(self.hosts)} "
                f"active_vms={self.active_vm_count}>")
