"""The Service Manager facade.

Ties together the components of Fig. 7: manifest parser, service lifecycle
manager, rule engine and the internal image server, over one VEEM and one
monitoring network. Exposes the Service Provider-facing deployment interface
(§5.1): submit a manifest, receive a managed service handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ...cloud.veem import VEEM
from ...monitoring.distribution import DistributionFramework, MulticastChannel
from ...sim.kernel import Environment, Process
from ...sim.tracing import TraceLog
from ..constraints.deployment import deployment_suite
from ..constraints.framework import CheckReport
from ..manifest.elasticity import ElasticityAction, ElasticityRule, VEEMOperation
from ..manifest.model import ServiceManifest
from .lifecycle import ComponentDriver, ScaleError, ServiceLifecycleManager
from .parser import ManifestParser, ParsedService
from .rules import RuleInterpreter

__all__ = ["ManagedService", "ServiceManager"]


@dataclass
class ManagedService:
    """Handle for one deployed service."""

    parsed: ParsedService
    lifecycle: ServiceLifecycleManager
    interpreter: RuleInterpreter
    deployment: object = None  # Process; join to await full deployment
    #: owning tenant (multi-tenant control plane attribution); None for
    #: services deployed directly against the manager
    tenant: Optional[str] = None
    #: the termination process once undeploy() has been called — the marker
    #: that makes undeploy idempotent
    termination: Optional[Process] = None
    #: ``service.deploy`` causal span (child of the provisioning request's
    #: span when the control plane drove the deployment)
    span: Optional[object] = field(default=None, repr=False)

    @property
    def service_id(self) -> str:
        return self.parsed.service_id

    def check_constraints(self) -> CheckReport:
        """Run the §4.2.2 semantic suite against current state."""
        return deployment_suite().check(
            self.lifecycle.provisioning_domain())

    def instance_count(self, system_id: str) -> int:
        return self.lifecycle.instance_count(system_id)


class ServiceManager:
    """The top RESERVOIR layer: Service Provider-facing management."""

    def __init__(self, env: Environment, veem: VEEM, *,
                 network: Optional[DistributionFramework] = None,
                 trace: Optional[TraceLog] = None):
        self.env = env
        self.veem = veem
        self.network = network or MulticastChannel(env)
        self.trace = trace if trace is not None else veem.trace
        self.parser = ManifestParser()
        self.services: dict[str, ManagedService] = {}
        #: called with (service, termination_process) when undeploy begins —
        #: the control plane hooks in here to free admission capacity once
        #: the termination completes, whichever layer initiated the undeploy
        self.on_undeploy: list[
            Callable[[ManagedService, Process], None]] = []

    # ------------------------------------------------------------------
    # Deployment interface (§5.1.1)
    # ------------------------------------------------------------------
    def deploy(self, manifest: Union[str, ServiceManifest], *,
               service_id: Optional[str] = None,
               drivers: Optional[dict[str, ComponentDriver]] = None,
               tenant: Optional[str] = None,
               placement_plan: Optional[dict] = None) -> ManagedService:
        """Steps 1–7: parse, install rules, set up images, deploy VEEs.

        Returns immediately with the deployment running as a process (join
        ``service.deployment`` to await step-7 completion). ``drivers`` maps
        system ids to application-level component drivers. ``tenant`` tags
        the service (and its usage accounting) with the submitting tenant.
        ``placement_plan`` (solver rescue) pins initial instances to hosts,
        keyed ``(system_id, instance_index)``.
        """
        # Step 1: parse + validate.
        parsed = self.parser.parse(manifest, service_id=service_id)
        # The service span nests under whatever is ambient (a control-plane
        # request span, a rule firing) — or roots a new tree for direct
        # deployments; the lifecycle closes it when step 7 completes.
        span = self.trace.span("service-manager", "service.deploy",
                               service=parsed.service_id, tenant=tenant)
        # Step 2: deployment command to the lifecycle manager.
        lifecycle = ServiceLifecycleManager(self.env, parsed, self.veem,
                                            trace=self.trace, tenant=tenant,
                                            placement_plan=placement_plan)
        lifecycle.span = span
        for system_id, driver in (drivers or {}).items():
            lifecycle.use_driver(system_id, driver)
        # Step 3: install the elasticity rules in the rule engine.
        interpreter = RuleInterpreter(
            self.env, parsed.service_id,
            executor=self._make_executor(lifecycle, parsed),
            trace=self.trace,
            kpi_defaults=parsed.manifest.kpi_defaults(),
        )
        interpreter.install_all(parsed.rules())
        interpreter.subscribe_to(self.network)
        if parsed.rules():
            interpreter.start()
        # Steps 4–7 run as a process.
        deployment = self.env.process(
            lifecycle.deploy_service(),
            name=f"deploy-service:{parsed.service_id}",
        )
        service = ManagedService(
            parsed=parsed, lifecycle=lifecycle, interpreter=interpreter,
            deployment=deployment, tenant=tenant, span=span,
        )
        self.services[parsed.service_id] = service
        return service

    def undeploy(self, service: ManagedService) -> Process:
        """Terminate a service; returns the termination process.

        Idempotent: the first call stops and detaches the rule interpreter
        (its monitoring subscriptions stay released) and starts termination;
        every later call is a no-op that returns the *same* termination
        process, so callers can join it without double-terminating.
        """
        if service.termination is not None:
            return service.termination
        service.interpreter.stop()
        service.interpreter.detach()
        if service.span is not None:
            # The undeploy descends from the deployment it reverses.
            service.lifecycle.term_span = self.trace.span(
                "service-manager", "service.undeploy",
                service=service.service_id, parent=service.span)
        termination = self.env.process(
            service.lifecycle.terminate_service(),
            name=f"terminate:{service.service_id}",
        )
        service.termination = termination
        for hook in self.on_undeploy:
            hook(service, termination)
        return termination

    # ------------------------------------------------------------------
    # Elasticity action execution (§5.1.2 steps 3–5)
    # ------------------------------------------------------------------
    def _make_executor(self, lifecycle: ServiceLifecycleManager,
                       parsed: ParsedService):
        def execute(action: ElasticityAction, rule: ElasticityRule) -> bool:
            op = action.operation
            if op is VEEMOperation.NOTIFY:
                self.trace.emit("service-manager", "notify",
                                service=parsed.service_id, rule=rule.name)
                return True
            target = parsed.resolve_action_target(action.component_ref)
            if target is None:
                self.trace.emit("service-manager", "action.unresolved",
                                service=parsed.service_id,
                                ref=action.component_ref)
                return False
            try:
                if op is VEEMOperation.DEPLOY_VM:
                    lifecycle.scale_up(target)
                elif op is VEEMOperation.UNDEPLOY_VM:
                    lifecycle.scale_down(target)
                elif op is VEEMOperation.RECONFIGURE_VM:
                    kwargs = _parse_resize_args(action.arguments)
                    if not kwargs:
                        return False
                    lifecycle.reconfigure(target, **kwargs)
                elif op is VEEMOperation.MIGRATE_VM:
                    if lifecycle.migrate_for_balance(target) is None:
                        return False
                else:  # pragma: no cover - enum is closed
                    return False
            except ScaleError as exc:
                self.trace.emit("service-manager", "action.refused",
                                service=parsed.service_id, rule=rule.name,
                                reason=str(exc))
                return False
            except Exception as exc:
                self.trace.emit("service-manager", "action.failed",
                                service=parsed.service_id, rule=rule.name,
                                error=str(exc))
                return False
            return True

        return execute


def _parse_resize_args(arguments: tuple[str, ...]) -> dict[str, float]:
    """``reconfigureVM(db, cpu=2, memory_mb=4096)`` argument parsing."""
    kwargs: dict[str, float] = {}
    for arg in arguments:
        if "=" not in arg:
            continue
        key, _, value = arg.partition("=")
        key = key.strip()
        if key in ("cpu", "memory_mb"):
            try:
                kwargs[key] = float(value)
            except ValueError:
                continue
    return kwargs
