"""The Service Lifecycle Manager.

§5.1: "This component controls the service lifecycle and is in charge of all
service management operations, including initial deployment, runtime scaling
and service termination. The Service Lifecycle Manager orchestrates all the
other Service Manager components and interfaces with the VEEM in order to
actually implement the management operations, e.g. sending individual
deployment descriptors to create new VEEs."

Initial deployment follows the 7-step §5.1.1 workflow; runtime scaling the
§5.1.2 elasticity workflow. Components may have an application-level
:class:`ComponentDriver` attached (e.g. the Condor cluster glue, which drains
nodes before stopping their VMs); otherwise the default driver submits and
shuts down VEEs directly.
"""

from __future__ import annotations

import abc
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from ...cloud.veem import VEEM
from ...cloud.vm import DeploymentDescriptor, VirtualMachine, VMState
from ...sim.kernel import Environment
from ...sim.tracing import TraceLog
from ..constraints.deployment import ProvisioningDomain
from ..manifest.model import VirtualSystem
from .accounting import ServiceAccountant
from .parser import ParsedService

__all__ = ["ComponentDriver", "DefaultDriver", "ManagedComponent",
           "ServiceLifecycleManager", "ScaleError"]


class ScaleError(Exception):
    """A scaling request that cannot be honoured (bounds, no instances)."""


class ComponentDriver(abc.ABC):
    """Application-level deploy/release mechanics for one component.

    The lifecycle manager enforces *policy* (instance bounds, accounting,
    constraint checks); the driver supplies *mechanics* — what starting and
    stopping an instance actually involves at the application layer.
    """

    @abc.abstractmethod
    def deploy(self, descriptor: DeploymentDescriptor) -> VirtualMachine:
        """Start one instance from the descriptor; return its VM."""

    @abc.abstractmethod
    def release(self) -> Optional[VirtualMachine]:
        """Begin removing one instance; return the VM that will stop, or
        ``None`` if nothing can be removed right now."""


class DefaultDriver(ComponentDriver):
    """Plain VEEM submit/shutdown, newest instance released first."""

    def __init__(self, env: Environment, veem: VEEM):
        self.env = env
        self.veem = veem
        self._vms: list[VirtualMachine] = []

    def deploy(self, descriptor: DeploymentDescriptor) -> VirtualMachine:
        vm = self.veem.submit(descriptor)
        self._vms.append(vm)
        return vm

    def release(self) -> Optional[VirtualMachine]:
        vm = next((v for v in reversed(self._vms) if v.is_active), None)
        if vm is None:
            return None
        self._vms.remove(vm)
        self.env.process(self._stop(vm), name=f"release:{vm.vm_id}")
        return vm

    def _stop(self, vm: VirtualMachine):
        if not (vm.on_running.processed or vm.on_stopped.processed):
            # A VM that fails while provisioning never fires on_running;
            # waiting on it alone would leave this process pending forever.
            yield self.env.any_of([vm.on_running, vm.on_stopped])
        if vm.state is VMState.RUNNING:
            yield self.veem.shutdown(vm)


@dataclass
class ManagedComponent:
    """Lifecycle state for one virtual system of a service."""

    system: VirtualSystem
    driver: ComponentDriver
    vms: list[VirtualMachine] = field(default_factory=list)
    next_instance: int = 0
    #: vm_ids released but not yet stopped — they no longer count toward the
    #: component's effective size, so back-to-back scale-downs cannot
    #: undershoot the minimum while shutdowns are still in flight
    releasing: set = field(default_factory=set)
    #: the VMs of ``vms`` not yet seen STOPPED or FAILED, in deploy order;
    #: both states are terminal, so the counts prune it as they read it and
    #: cost the live instances, not every VM the component ever had
    live: list[VirtualMachine] = field(default_factory=list)

    def _live(self) -> list[VirtualMachine]:
        live = self.live = [vm for vm in self.live if vm.is_active]
        return live

    @property
    def active_count(self) -> int:
        return len(self._live())

    @property
    def effective_count(self) -> int:
        """Active instances minus those already being released."""
        releasing = self.releasing
        return sum(1 for vm in self._live() if vm.vm_id not in releasing)


_PLACEHOLDER_RE = re.compile(r"\$\{ip\.([A-Za-z0-9_\-]+)\.([A-Za-z0-9_\-]+)\}")


class ServiceLifecycleManager:
    """Deploys, scales and terminates one service on a VEEM."""

    def __init__(self, env: Environment, parsed: ParsedService, veem: VEEM, *,
                 trace: Optional[TraceLog] = None,
                 auto_heal: bool = True,
                 tenant: Optional[str] = None,
                 placement_plan: Optional[dict] = None):
        self.env = env
        self.parsed = parsed
        self.veem = veem
        self.trace = trace if trace is not None else veem.trace
        #: redeploy instances that FAIL while the component would otherwise
        #: drop below its minimum — "replicate components ... as demand grows
        #: or components become unavailable" (§1)
        self.auto_heal = auto_heal
        self._terminating = False
        #: solver-computed host pins keyed ``(system_id, instance_index)``,
        #: consumed (popped) as the matching instances deploy — scale-ups
        #: beyond the planned set place normally
        self.pin_plan: dict = dict(placement_plan or {})
        #: owning tenant, threaded into accounting so multi-tenant usage can
        #: be attributed and billed per tenant
        self.tenant = tenant
        self.accountant = ServiceAccountant(env, parsed.service_id,
                                            tenant=tenant)
        self.components: dict[str, ManagedComponent] = {}
        self.descriptors: list[DeploymentDescriptor] = []
        self.deployed_at: Optional[float] = None
        self.terminated_at: Optional[float] = None
        #: ``service.deploy`` span (set by the ServiceManager); activated
        #: around the synchronous instance submissions so the VEEs' deploy
        #: spans nest under the service, and closed when step 7 completes
        self.span = None
        #: ``service.undeploy`` span, set by ServiceManager.undeploy
        self.term_span = None
        #: invoked with each VM that reaches RUNNING (apps bind guests here)
        self.on_instance_running: list[Callable[[str, VirtualMachine], None]] = []
        env.metrics.register_view(
            "core.lifecycle.active_instances",
            lambda: sum(c.active_count for c in self.components.values()),
            service=parsed.service_id)
        # Scaling/healing counters are created on first use: most services
        # in a churn-heavy run never scale, and deploy/terminate is a
        # control-plane hot path.
        self._m_scale_ups = None
        self._m_scale_downs = None
        self._m_heals = None

    def _counter(self, attr: str, name: str):
        counter = getattr(self, attr)
        if counter is None:
            counter = self.env.metrics.counter(
                name, service=self.parsed.service_id)
            setattr(self, attr, counter)
        return counter

    def _activated(self, span):
        """Ambient-scope context for a synchronous section, or a no-op."""
        if span is None:
            return nullcontext()
        return self.trace.activate(span)

    # ------------------------------------------------------------------
    # Driver registration
    # ------------------------------------------------------------------
    def use_driver(self, system_id: str, driver: ComponentDriver) -> None:
        """Attach an application driver (call before deploy_service)."""
        system = self.parsed.manifest.system(system_id)
        self.components[system_id] = ManagedComponent(system, driver)

    def _component(self, system_id: str) -> ManagedComponent:
        if system_id not in self.components:
            system = self.parsed.manifest.system(system_id)
            self.components[system_id] = ManagedComponent(
                system, DefaultDriver(self.env, self.veem))
        return self.components[system_id]

    # ------------------------------------------------------------------
    # Initial deployment (§5.1.1 steps 4–7)
    # ------------------------------------------------------------------
    def deploy_service(self):
        """Process: bring up every component per the startup section.

        The ``service.deploy`` span is *activated* only around the
        synchronous sections (never across a ``yield`` — other processes
        interleave there), so the VEE submissions of every tier nest under
        the service span without leaking scope into unrelated processes.
        """
        manifest = self.parsed.manifest
        with self._activated(self.span):
            self.trace.emit("lifecycle", "service.deploy.start",
                            service=self.parsed.service_id)
            # Step 4: set up images on the internal server.
            self._register_images()
            # Install placement constraints before any submission.
            for constraint in self.parsed.placement_constraints():
                if constraint not in self.veem.placer.constraints:
                    self.veem.placer.add_constraint(constraint)

        # Steps 5–7, tier by tier.
        for tier in manifest.startup_order():
            gating: list[VirtualMachine] = []
            gated_systems: list[str] = []
            with self._activated(self.span):
                for system_id in tier:
                    component = self._component(system_id)
                    entry = next(
                        (e for e in manifest.startup
                         if e.system_id == system_id), None)
                    gated = entry is None or entry.wait_for_guest
                    if gated:
                        gated_systems.append(system_id)
                    for _ in range(component.system.instances.initial):
                        vm = self._deploy_instance(component)
                        if gated:
                            gating.append(vm)
            # Tier barrier: every gating instance must *settle* — reach
            # RUNNING, or die trying (STOPPED/FAILED). Waiting on
            # ``on_running`` alone would wedge the deployment forever when a
            # host crash or injected fault kills an instance mid-provisioning
            # (``on_running`` never fires for a FAILED VM), leaving the
            # service's ``deployment`` event unfired and any control-plane
            # request stuck in DEPLOYING. Instances that died and were healed
            # are swept up on the next pass, so the deployment event still
            # means "everything this deployment caused has settled".
            seen: set[str] = set()
            while gating:
                waits = []
                for vm in gating:
                    seen.add(vm.vm_id)
                    if not (vm.on_running.processed
                            or vm.on_stopped.processed):
                        waits.append(self.env.any_of([vm.on_running,
                                                      vm.on_stopped]))
                if waits:
                    yield self.env.all_of(waits)
                gating = [vm for system_id in gated_systems
                          for vm in self._component(system_id).vms
                          if vm.vm_id not in seen and vm.is_active
                          and vm.state is not VMState.RUNNING]
        self.deployed_at = self.env.now
        self.trace.emit_in(self.span, "lifecycle", "service.deploy.done",
                           service=self.parsed.service_id,
                           duration=self.env.now)
        if self.span is not None and not self.span.closed:
            self.trace.close_span(
                self.span, "ok",
                deploy_duration_s=self.env.now - self.span.start)

    def _register_images(self) -> None:
        repo = self.veem.repository
        for ref in self.parsed.manifest.references:
            try:
                repo.resolve_href(ref.href)
            except Exception:
                repo.add(ref.file_id, ref.size_mb, href=ref.href)

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def _deploy_instance(self, component: ManagedComponent) -> VirtualMachine:
        descriptor = self.parsed.descriptor_for(
            component.system, component.next_instance)
        pin = self.pin_plan.pop(
            (component.system.system_id, component.next_instance), None)
        if pin is not None:
            descriptor.placement["host"] = pin
        component.next_instance += 1
        descriptor.customisation = self._resolve_customisation(
            descriptor.customisation)
        self.descriptors.append(descriptor)
        vm = component.driver.deploy(descriptor)
        component.vms.append(vm)
        component.live.append(vm)
        self.accountant.instance_deployed(component.system.system_id)
        self.env.process(self._watch_instance(component, vm),
                         name=f"watch:{vm.vm_id}")
        self.trace.emit("lifecycle", "instance.deploy",
                        service=self.parsed.service_id,
                        component=component.system.system_id, vm=vm.vm_id)
        return vm

    def _watch_instance(self, component: ManagedComponent,
                        vm: VirtualMachine):
        if not vm.on_running.processed:
            # A VM killed while provisioning stops without ever running.
            yield self.env.any_of([vm.on_running, vm.on_stopped])
        if vm.state is VMState.RUNNING:
            for hook in self.on_instance_running:
                hook(component.system.system_id, vm)
        if not vm.on_stopped.processed:
            yield vm.on_stopped
        was_releasing = vm.vm_id in component.releasing
        component.releasing.discard(vm.vm_id)
        self.accountant.instance_released(component.system.system_id)
        if (self.auto_heal and not self._terminating and not was_releasing
                and vm.state is VMState.FAILED):
            self._heal(component, vm)

    def _resolve_customisation(self, customisation: dict) -> dict:
        """MDL6: substitute ``${ip.<network>.<system>}`` placeholders with
        the address of the referenced system's first running instance."""
        resolved = {}
        for key, value in customisation.items():
            if isinstance(value, str):
                value = _PLACEHOLDER_RE.sub(self._lookup_ip, value)
            resolved[key] = value
        return resolved

    def _lookup_ip(self, match: re.Match) -> str:
        network, system_id = match.groups()
        component = self.components.get(system_id)
        if component is not None:
            for vm in component.vms:
                if vm.is_active and network in vm.ip_addresses:
                    return vm.ip_addresses[network]
        return match.group(0)  # unresolved: leave the placeholder visible

    def _heal(self, component: ManagedComponent, dead: VirtualMachine) -> None:
        """Replace a failed instance if the component fell below its floor.

        The floor is the instance minimum: a component with a minimum of
        zero is not healed (elastic arrays scaled to zero stay at zero —
        the elasticity rules own that decision).
        """
        if component.effective_count < component.system.instances.minimum:
            self._replace(component, dead.vm_id)

    def ensure_floor(self) -> int:
        """Redeploy every component currently below its heal floor.

        The failure-time heal path (:meth:`_heal`) runs once, when the
        instance dies; if the whole site is down at that moment the heal
        fails for capacity and nothing retries it. This is the recovery
        hook: after a host or site comes back, re-floor the service.
        Returns how many replacement instances were deployed.
        """
        if self._terminating or not self.auto_heal:
            return 0
        deployed = 0
        for component in self.components.values():
            while (component.effective_count
                   < component.system.instances.minimum):
                if not self._replace(component, None):
                    break
                deployed += 1
        return deployed

    def _replace(self, component: ManagedComponent,
                 failed_vm: Optional[str]) -> bool:
        """Deploy one replacement instance (a heal); False if it failed."""
        try:
            replacement = self._deploy_instance(component)
        except Exception as exc:
            self.trace.emit("lifecycle", "instance.heal.failed",
                            service=self.parsed.service_id,
                            component=component.system.system_id,
                            error=str(exc))
            return False
        self._counter('_m_heals', 'core.lifecycle.heals').inc()
        self.trace.emit("lifecycle", "instance.heal",
                        service=self.parsed.service_id,
                        component=component.system.system_id,
                        failed_vm=failed_vm, replacement=replacement.vm_id)
        return True

    # ------------------------------------------------------------------
    # Runtime scaling (§5.1.2)
    # ------------------------------------------------------------------
    def scale_up(self, system_id: str) -> VirtualMachine:
        component = self._component(system_id)
        bounds = component.system.instances
        if component.effective_count >= bounds.maximum:
            raise ScaleError(
                f"{system_id}: already at maximum {bounds.maximum} instances"
            )
        if not component.system.replicable and component.effective_count >= 1:
            raise ScaleError(f"{system_id}: component is not replicable")
        vm = self._deploy_instance(component)
        self._counter('_m_scale_ups', 'core.lifecycle.scale_ups').inc()
        self.trace.emit("lifecycle", "scale.up",
                        service=self.parsed.service_id,
                        component=system_id, vm=vm.vm_id,
                        instances=component.active_count)
        return vm

    def scale_down(self, system_id: str) -> VirtualMachine:
        component = self._component(system_id)
        bounds = component.system.instances
        if component.effective_count <= bounds.minimum:
            raise ScaleError(
                f"{system_id}: already at minimum {bounds.minimum} instances"
            )
        vm = component.driver.release()
        if vm is None:
            raise ScaleError(f"{system_id}: no releasable instance")
        component.releasing.add(vm.vm_id)
        self._counter('_m_scale_downs', 'core.lifecycle.scale_downs').inc()
        self.trace.emit("lifecycle", "scale.down",
                        service=self.parsed.service_id,
                        component=system_id, vm=vm.vm_id,
                        instances=component.active_count)
        return vm

    def reconfigure(self, system_id: str, *, cpu: Optional[float] = None,
                    memory_mb: Optional[float] = None) -> int:
        """Resize every running instance of a component; returns how many."""
        component = self._component(system_id)
        count = 0
        for vm in component.vms:
            if vm.state is VMState.RUNNING:
                self.veem.reconfigure(vm, cpu=cpu, memory_mb=memory_mb)
                count += 1
        return count

    def migrate_for_balance(self, system_id: str) -> Optional[VirtualMachine]:
        """Move one running instance to the emptiest other host (the
        ``migrateVM`` action's single-site interpretation)."""
        component = self._component(system_id)
        vm = next((v for v in component.vms
                   if v.state is VMState.RUNNING), None)
        if vm is None:
            return None
        candidates = [
            h for h in self.veem.hosts
            if h is not vm.host
            and h.fits(vm.descriptor.cpu, vm.descriptor.memory_mb)
        ]
        if not candidates:
            return None
        target = max(candidates, key=lambda h: h.memory_free)
        self.veem.migrate(vm, target)
        return vm

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def terminate_service(self):
        """Process: release every instance, reverse startup order."""
        self._terminating = True
        self.trace.emit_in(self.term_span, "lifecycle",
                           "service.terminate.start",
                           service=self.parsed.service_id)
        for tier in reversed(self.parsed.manifest.startup_order()):
            stops = []
            with self._activated(self.term_span):
                for system_id in tier:
                    component = self.components.get(system_id)
                    if component is None:
                        continue
                    while component.active_count > 0:
                        vm = component.driver.release()
                        if vm is None:
                            break
                        stops.append(vm.on_stopped)
            if stops:
                yield self.env.all_of(stops)
        self.terminated_at = self.env.now
        self.trace.emit_in(self.term_span, "lifecycle",
                           "service.terminate.done",
                           service=self.parsed.service_id)
        if self.term_span is not None and not self.term_span.closed:
            self.trace.close_span(self.term_span, "ok")
        # A deploy span still open here means the service was torn down
        # mid-deployment; close it so no span outlives its service.
        if self.span is not None and not self.span.closed:
            self.trace.close_span(self.span, "aborted")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def instance_count(self, system_id: str) -> int:
        component = self.components.get(system_id)
        return component.active_count if component else 0

    def all_vms(self) -> list[VirtualMachine]:
        return [vm for c in self.components.values() for vm in c.vms]

    def provisioning_domain(self) -> ProvisioningDomain:
        """The (manifest, state) pair the §4.2.2 constraints evaluate over."""
        return ProvisioningDomain(
            manifest=self.parsed.manifest,
            service_id=self.parsed.service_id,
            descriptors=list(self.descriptors),
            vms=self.all_vms(),
        )
