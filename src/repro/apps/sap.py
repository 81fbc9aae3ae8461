"""The §3 motivating example: an SAP-style three-tier ERP system.

"SAP ERP systems have a multi-tiered software architecture with a relational
database layer. On top of the database is an application layer that has a
Central Instance ... Moreover SAP applications have a number of Dialog
Instances, which are application servers responsible for handling business
logic ... A Web Dispatcher may be used to balance workloads between multiple
dialog instances."

Architectural constraints reproduced from §3:

* the Central Instance and the DBMS must be **co-located**;
* the Central Instance **cannot be replicated**;
* Dialog Instances are replicated to accommodate demand, driven by the
  ``com.sap.webdispatcher.kpis.sessions`` KPI (§4.2.1's running example: the
  dispatcher's simultaneous web sessions, which SAP reports on query because
  its protocols are proprietary — the monitoring agent bridges that gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cloud.veem import VEEM
from ..cloud.vm import DeploymentDescriptor, VirtualMachine
from ..core.manifest.builder import ManifestBuilder
from ..core.manifest.model import ServiceManifest
from ..core.service_manager.lifecycle import ComponentDriver
from ..core.service_manager.manager import ManagedService, ServiceManager
from ..monitoring.agents import MonitoringAgent
from ..sim.kernel import Environment
from ..sim.rng import RandomStreams
from ..sim.tracing import SeriesRecorder

__all__ = [
    "SAPConfig",
    "sap_manifest",
    "WebDispatcher",
    "DialogInstanceDriver",
    "SessionWorkload",
    "SAPDeployment",
    "deploy_sap",
]

SESSIONS_KPI = "com.sap.webdispatcher.kpis.sessions"
DI_INSTANCES_KPI = "com.sap.di.instances.size"


@dataclass(frozen=True)
class SAPConfig:
    """Sizing and elasticity parameters for the modelled SAP system."""

    #: concurrent sessions one Dialog Instance handles comfortably
    sessions_per_di: int = 100
    max_dialog_instances: int = 8
    min_dialog_instances: int = 1
    monitoring_period_s: float = 30.0
    #: DI registration time after its VM boots (app server start + RFC join)
    di_registration_s: float = 30.0

    def __post_init__(self) -> None:
        if self.sessions_per_di <= 0:
            raise ValueError("sessions_per_di must be positive")
        if not 1 <= self.min_dialog_instances <= self.max_dialog_instances:
            raise ValueError("bad dialog-instance bounds")


def sap_manifest(cfg: Optional[SAPConfig] = None) -> ServiceManifest:
    """The SAP system's service definition manifest."""
    cfg = cfg or SAPConfig()
    b = ManifestBuilder("sap-erp")
    b.network("internal", description="application LAN segment")
    b.network("dmz", description="browser-facing HTTP", public=True)

    b.component("DBMS", image_mb=8192, cpu=2, memory_mb=6144,
                networks=["internal"], startup_order=0,
                info="relational database layer (I/O and memory intensive)")
    b.component("CentralInstance", image_mb=4096, cpu=2, memory_mb=4096,
                networks=["internal"], startup_order=1, replicable=False,
                info="synchronisation, registration, spooling, DB gateway",
                customisation={"db_host": "${ip.internal.DBMS}"})
    b.component("WebDispatcher", image_mb=1024, cpu=1, memory_mb=1024,
                networks=["internal", "dmz"], startup_order=2,
                info="session load balancer")
    b.component("DialogInstance", image_mb=4096, cpu=2, memory_mb=3072,
                networks=["internal"], startup_order=3,
                initial=cfg.min_dialog_instances,
                minimum=cfg.min_dialog_instances,
                maximum=cfg.max_dialog_instances,
                info="business-logic application server (CPU intensive)",
                customisation={
                    "ci_host": "${ip.internal.CentralInstance}",
                    "db_host": "${ip.internal.DBMS}",
                })

    # §3: "the Central Instance and the database need to be co-located".
    b.colocate("CentralInstance", "DBMS")

    b.application("sap-erp-app")
    b.kpi("WebDispatcher", "WebDispatcher", SESSIONS_KPI,
          frequency_s=cfg.monitoring_period_s, units="sessions", default=0)
    b.kpi("DialogInstances", "DialogInstance", DI_INSTANCES_KPI,
          frequency_s=cfg.monitoring_period_s,
          default=cfg.min_dialog_instances)

    b.rule(
        "ScaleDialogInstancesUp",
        f"(@{SESSIONS_KPI} / {cfg.sessions_per_di} > @{DI_INSTANCES_KPI}) "
        f"&& (@{DI_INSTANCES_KPI} < {cfg.max_dialog_instances})",
        "deployVM(DialogInstance)",
    )
    b.rule(
        "ScaleDialogInstancesDown",
        f"(@{SESSIONS_KPI} / {cfg.sessions_per_di} < @{DI_INSTANCES_KPI} - 1)"
        f" && (@{DI_INSTANCES_KPI} > {cfg.min_dialog_instances})",
        "undeployVM(DialogInstance)",
        cooldown_s=60.0,
    )
    return b.build()


class WebDispatcher:
    """Session-level model of the SAP Web Dispatcher.

    Tracks active sessions and the registered Dialog Instances serving them;
    reports the overload ratio (sessions per DI capacity) as a
    quality-of-service proxy.
    """

    def __init__(self, env: Environment, cfg: SAPConfig):
        self.env = env
        self.cfg = cfg
        self.active_sessions = 0
        self.dialog_instances: list[str] = []
        self.series = SeriesRecorder(env)
        self.series.record("sessions", 0)
        self.series.record("dialog_instances", 0)
        self.rejected_sessions = 0

    # -- DI registration -----------------------------------------------------
    def register_di(self, name: str) -> None:
        if name in self.dialog_instances:
            raise ValueError(f"dialog instance {name!r} already registered")
        self.dialog_instances.append(name)
        self.series.record("dialog_instances", len(self.dialog_instances))

    def deregister_di(self, name: str) -> None:
        self.dialog_instances.remove(name)
        self.series.record("dialog_instances", len(self.dialog_instances))

    # -- session lifecycle -----------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.dialog_instances) * self.cfg.sessions_per_di

    def open_session(self) -> bool:
        """Admit a session; hard-reject at 2× capacity (connection errors)."""
        if self.capacity == 0 or self.active_sessions >= 2 * self.capacity:
            self.rejected_sessions += 1
            return False
        self.active_sessions += 1
        self.series.record("sessions", self.active_sessions)
        return True

    def close_session(self) -> None:
        if self.active_sessions <= 0:
            raise ValueError("no session to close")
        self.active_sessions -= 1
        self.series.record("sessions", self.active_sessions)


class DialogInstanceDriver(ComponentDriver):
    """Component driver binding DI VMs to the dispatcher's server pool."""

    def __init__(self, env: Environment, veem: VEEM,
                 dispatcher: WebDispatcher, cfg: SAPConfig):
        self.env = env
        self.veem = veem
        self.dispatcher = dispatcher
        self.cfg = cfg
        self._vms: list[VirtualMachine] = []

    def deploy(self, descriptor: DeploymentDescriptor) -> VirtualMachine:
        vm = self.veem.submit(descriptor)
        self._vms.append(vm)
        self.env.process(self._guest(vm), name=f"di-guest:{vm.vm_id}")
        return vm

    def _guest(self, vm: VirtualMachine):
        if not vm.on_running.processed:
            yield vm.on_running
        yield self.env.timeout(self.cfg.di_registration_s)
        if vm.is_active:
            self.dispatcher.register_di(vm.vm_id)

    def release(self) -> Optional[VirtualMachine]:
        vm = next((v for v in reversed(self._vms) if v.is_active), None)
        if vm is None:
            return None
        self._vms.remove(vm)
        self.env.process(self._stop(vm), name=f"di-stop:{vm.vm_id}")
        return vm

    def _stop(self, vm: VirtualMachine):
        if not vm.on_running.processed:
            yield vm.on_running
        if vm.vm_id in self.dispatcher.dialog_instances:
            self.dispatcher.deregister_di(vm.vm_id)
        if vm.state.value == "running":
            yield self.veem.shutdown(vm)


@dataclass(frozen=True)
class SessionWorkload:
    """A piecewise-constant session arrival profile.

    ``phases`` is a sequence of (duration_s, arrival_rate_per_s) segments;
    sessions last ``session_duration_s`` on average (exponential).
    """

    phases: tuple[tuple[float, float], ...] = (
        (1800.0, 0.05),    # quiet morning
        (3600.0, 0.50),    # business peak
        (1800.0, 0.05),    # wind-down
    )
    session_duration_s: float = 600.0
    random_seed: int = 11

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("need at least one phase")
        if any(d <= 0 or r < 0 for d, r in self.phases):
            raise ValueError("bad phase")
        if self.session_duration_s <= 0:
            raise ValueError("session duration must be positive")

    @property
    def total_duration_s(self) -> float:
        return sum(d for d, _ in self.phases)


def drive_sessions(env: Environment, dispatcher: WebDispatcher,
                   workload: SessionWorkload):
    """Process: generate the session load against the dispatcher."""
    rng = RandomStreams(workload.random_seed).stream("sessions")

    def session(duration: float):
        yield env.timeout(duration)
        dispatcher.close_session()

    for duration, rate in workload.phases:
        phase_end = env.now + duration
        while env.now < phase_end:
            if rate <= 0:
                yield env.timeout(phase_end - env.now)
                break
            gap = float(rng.exponential(1.0 / rate))
            if env.now + gap >= phase_end:
                yield env.timeout(phase_end - env.now)
                break
            yield env.timeout(gap)
            if dispatcher.open_session():
                length = float(rng.exponential(workload.session_duration_s))
                env.process(session(length), name="session")


@dataclass
class SAPDeployment:
    """Handle for a deployed SAP system: service + dispatcher + agent."""

    service: ManagedService
    dispatcher: WebDispatcher
    agent: MonitoringAgent
    cfg: SAPConfig

    @property
    def dialog_instance_count(self) -> int:
        return self.service.instance_count("DialogInstance")


def deploy_sap(env: Environment, sm: ServiceManager,
               cfg: Optional[SAPConfig] = None, *,
               service_id: str = "sap-1") -> SAPDeployment:
    """Deploy the SAP manifest with its application glue and agent."""
    cfg = cfg or SAPConfig()
    dispatcher = WebDispatcher(env, cfg)
    manifest = sap_manifest(cfg)
    driver = DialogInstanceDriver(env, sm.veem, dispatcher, cfg)
    service = sm.deploy(manifest, service_id=service_id,
                        drivers={"DialogInstance": driver})
    agent = MonitoringAgent(env, service_id=service_id,
                            component="WebDispatcher", network=sm.network)
    agent.expose(SESSIONS_KPI, lambda: dispatcher.active_sessions,
                 frequency_s=cfg.monitoring_period_s, units="sessions")
    agent.expose(DI_INSTANCES_KPI,
                 lambda: service.instance_count("DialogInstance"),
                 frequency_s=cfg.monitoring_period_s)
    return SAPDeployment(service=service, dispatcher=dispatcher,
                         agent=agent, cfg=cfg)
