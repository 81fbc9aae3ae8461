"""The §6 evaluation: polymorph search on dedicated vs. elastic clusters.

Reproduces the experimental setup of §6.1: six quad-core/8 GB hosts managed
by a VEEM, a three-component service (Orchestration, Grid Management, Condor
Execution), the §6.1.2 elasticity rules, 30-second application-level
monitoring, and the polymorph-search workload (2 seed jobs, 200 refinements
per seed). Two runs are compared:

* **dedicated** — 16 continuously allocated execution nodes (the paper's
  dedicated-cluster baseline, Fig. 11 left);
* **elastic** — execution instances deployed/undeployed by the Service
  Manager's rule engine (Fig. 11 right).

Rule-set note (documented deviation): the paper prints only the scale-up
rule. With that rule alone a 2-job queue never triggers scale-up from zero
instances (2/(0+1) = 2 < 4), so the full rule set evaluated here adds a
*bootstrap* rule (deploy while queued work exists and fewer than
``bootstrap_instances`` are up) and the symmetric scale-down rule the paper
describes but does not print ("We use a similar elasticity rule for
downsizing allocated capacity as the queue size shrinks"). Both extra rules
are expressed in the paper's own rule language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cloud.images import ImageRepository
from ..cloud.veeh import Host, HypervisorTimings
from ..cloud.veem import VEEM
from ..core.manifest.builder import ManifestBuilder
from ..core.manifest.model import ServiceManifest
from ..core.service_manager.manager import ManagedService, ServiceManager
from ..grid.execution import CondorExecDriver, VirtualCluster
from ..grid.polymorph import PolymorphSearchConfig, build_polymorph_workflow
from ..grid.scheduler import CondorScheduler, ExecutionNodeHandle
from ..grid.workflow import WorkflowContext
from ..monitoring.agents import MonitoringAgent
from ..sim.kernel import Environment
from ..sim.tracing import TimeSeries

__all__ = [
    "UTIL_KPI",
    "TestbedConfig",
    "RunResult",
    "polymorph_manifest",
    "deploy_elastic",
    "run_dedicated",
    "run_elastic",
    "table3",
]

# KPI qualified names, exactly as printed in §6.1.2.
QUEUE_KPI = "uk.ucl.condor.schedd.queuesize"
INSTANCES_KPI = "uk.ucl.condor.exec.instances.size"
IDLE_KPI = "uk.ucl.condor.exec.idle.size"
#: infrastructure-level trigger for the §7 ablation (CPU utilisation of the
#: execution tier, in percent — what EC2-style auto-scaling observes)
UTIL_KPI = "uk.ucl.infra.exec.cpu.utilisation"


@dataclass(frozen=True)
class TestbedConfig:
    """The §6.1.2 testbed, as configuration.

    (Named "Testbed…" after the paper's §6.1 heading; not a pytest class.)

    Defaults model the paper's six Opteron servers with shared NFS storage;
    latency parameters are calibrated so the elastic run's overhead lands in
    the paper's few-percent band (Table 3: +7.15%).
    """

    __test__ = False  # "Test…"-prefixed dataclass, not a pytest class

    # Physical site: "a collection of six servers, each of them presenting a
    # Quad-Core AMD Opteron ... and 8 GBs of RAM" (§6.1.2).
    n_hosts: int = 6
    host_cpu_cores: float = 4.0
    host_memory_mb: float = 8192.0

    # Hypervisor + storage latency model.
    image_bandwidth_mb_per_s: float = 22.0   # per-VM image clone over NFS
    define_s: float = 3.0
    boot_s: float = 50.0
    shutdown_s: float = 10.0

    # Component images (MB).
    orchestration_image_mb: float = 4096.0
    gridmgmt_image_mb: float = 4096.0
    exec_image_mb: float = 4096.0

    # Condor behaviour.
    registration_delay_s: float = 40.0       # startd advertise after boot
    match_delay_s: float = 2.0
    node_transfer_mb_per_s: float = 50.0

    # Elasticity / monitoring (§6.1.2).
    max_exec_instances: int = 16
    exec_per_host_cap: int = 4
    scale_threshold: float = 4.0              # jobs per instance
    bootstrap_instances: int = 2
    monitoring_period_s: float = 30.0
    time_constraint_ms: float = 5000.0
    #: spacing between successive scale-down firings; deliberately slower
    #: than scale-up so transient queue dips don't thrash the cluster
    scale_down_cooldown_s: float = 45.0
    #: spacing between bootstrap-rule firings; None uses the rule's time
    #: constraint (one deploy per evaluation window). Setting it to the
    #: monitoring period suppresses the stale-KPI overshoot at cold start.
    bootstrap_cooldown_s: Optional[float] = None

    #: pre-stage exec images on hosts (the §6.1.4 mitigation; ablation knob)
    prestage_images: bool = False
    #: KPI category for rule triggers: "app" (queue length, the paper's
    #: choice) or "infra" (host CPU utilisation — the §7 comparison point)
    trigger_mode: str = "app"

    def __post_init__(self) -> None:
        if self.trigger_mode not in ("app", "infra"):
            raise ValueError("trigger_mode must be 'app' or 'infra'")
        if self.bootstrap_instances < 1:
            raise ValueError("bootstrap_instances must be ≥ 1")


@dataclass
class RunResult:
    """Everything Fig. 11 and Table 3 need from one run."""

    mode: str                                 # "dedicated" | "elastic"
    turnaround_s: float
    #: search start/end in simulation time
    run_start: float
    run_end: float
    #: time the last execution VM stopped (elastic only)
    shutdown_time_s: Optional[float]
    #: step series of queued (idle) jobs
    queue_series: TimeSeries
    #: step series of allocated execution instances
    nodes_series: TimeSeries
    mean_nodes_run: float = 0.0
    mean_nodes_until_shutdown: Optional[float] = None
    peak_nodes: float = 0.0
    jobs_completed: int = 0
    #: diagnostics
    rule_firings: dict = field(default_factory=dict)
    trace: object = None

    def finalize(self) -> "RunResult":
        self.mean_nodes_run = self.nodes_series.mean(
            self.run_start, self.run_end)
        if self.shutdown_time_s is not None:
            end = self.run_start + self.shutdown_time_s
            self.mean_nodes_until_shutdown = self.nodes_series.mean(
                self.run_start, end)
        self.peak_nodes = self.nodes_series.maximum(
            self.run_start, self.run_end)
        return self


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def polymorph_manifest(cfg: TestbedConfig) -> ServiceManifest:
    """The service definition manifest of §6.1.2, in the builder API."""
    b = ManifestBuilder("polymorphGridService")
    b.network("internal", description="virtual cluster interconnect")
    b.network("dmz", description="user-facing HTTP front end", public=True)

    # "Both the Orchestration and Grid Management components will be
    # allocated the equivalent of a single physical host each, due to heavy
    # memory requirements" (§6.1.2).
    b.component("Orchestration", image_mb=cfg.orchestration_image_mb,
                cpu=cfg.host_cpu_cores, memory_mb=cfg.host_memory_mb,
                networks=["internal", "dmz"], startup_order=0,
                info="BPEL orchestration web service")
    b.component("GridMgmt", image_mb=cfg.gridmgmt_image_mb,
                cpu=cfg.host_cpu_cores, memory_mb=cfg.host_memory_mb,
                networks=["internal"], startup_order=1,
                info="web-service job submission front end + Condor schedd")
    # "up to 4 Condor Execution components may be deployed on a single
    # physical host, limiting the maximum cluster size to 16 nodes".
    b.component("exec", image_mb=cfg.exec_image_mb,
                cpu=cfg.host_cpu_cores / cfg.exec_per_host_cap,
                memory_mb=cfg.host_memory_mb / cfg.exec_per_host_cap,
                networks=["internal"], startup_order=2,
                initial=0, minimum=0, maximum=cfg.max_exec_instances,
                info="Condor execution service",
                customisation={"schedd": "${ip.internal.GridMgmt}"})
    b.per_host_cap("exec", cfg.exec_per_host_cap)

    b.application("polymorphGridApp")
    b.kpi("GridMgmtService", "GridMgmt", QUEUE_KPI,
          frequency_s=cfg.monitoring_period_s, type_name="int",
          units="jobs", default=0)
    b.kpi("Cluster", "exec", INSTANCES_KPI,
          frequency_s=cfg.monitoring_period_s, type_name="int", default=0)
    b.kpi("ClusterIdle", "exec", IDLE_KPI,
          frequency_s=cfg.monitoring_period_s, type_name="int", default=0)

    if cfg.trigger_mode == "app":
        # The §6.1.2 rule, verbatim semantics.
        b.rule(
            "AdjustClusterSizeUp",
            f"(@{QUEUE_KPI} / (@{INSTANCES_KPI} + 1) > {cfg.scale_threshold}) "
            f"&& (@{INSTANCES_KPI} < {cfg.max_exec_instances})",
            "deployVM(uk.ucl.condor.exec.ref)",
            time_constraint_ms=cfg.time_constraint_ms,
        )
        # Documented completion #2: the unprinted "similar rule for
        # downsizing".
        b.rule(
            "AdjustClusterSizeDown",
            f"(@{QUEUE_KPI} == 0) && (@{IDLE_KPI} > 0)",
            "undeployVM(uk.ucl.condor.exec.ref)",
            time_constraint_ms=cfg.time_constraint_ms,
            cooldown_s=cfg.scale_down_cooldown_s,
        )
    else:
        # §7 ablation: EC2-style triggers on infrastructure CPU utilisation.
        # "the need to increase the cluster size cannot be identified through
        # these metrics as we require an understanding of the scheduling
        # process" — a node running its single job is 100% busy whether the
        # queue holds 1 job or 200, so utilisation over-provisions during the
        # seed phase and carries no scale-out signal proportional to demand.
        b.kpi("InfraMonitor", "exec", UTIL_KPI,
              frequency_s=cfg.monitoring_period_s, type_name="double",
              units="percent", category="Infrastructure", default=0)
        b.rule(
            "UtilisationScaleUp",
            f"(@{UTIL_KPI} > 75) && (@{INSTANCES_KPI} < {cfg.max_exec_instances})",
            "deployVM(uk.ucl.condor.exec.ref)",
            time_constraint_ms=cfg.time_constraint_ms,
        )
        b.rule(
            "UtilisationScaleDown",
            f"(@{UTIL_KPI} < 25) && (@{IDLE_KPI} > 0)",
            "undeployVM(uk.ucl.condor.exec.ref)",
            time_constraint_ms=cfg.time_constraint_ms,
            cooldown_s=cfg.scale_down_cooldown_s,
        )
    # Documented completion #1: bootstrap from zero/near-zero instances
    # (needed in both modes: neither rule family can start a cluster whose
    # utilisation and queue ratio are undefined at size zero).
    b.rule(
        "BootstrapCluster",
        f"(@{QUEUE_KPI} > 0) && (@{INSTANCES_KPI} < {cfg.bootstrap_instances})",
        "deployVM(uk.ucl.condor.exec.ref)",
        time_constraint_ms=cfg.time_constraint_ms,
        cooldown_s=cfg.bootstrap_cooldown_s,
    )
    return b.build()


# ---------------------------------------------------------------------------
# Dedicated baseline (Fig. 11 left)
# ---------------------------------------------------------------------------

def run_dedicated(workload: Optional[PolymorphSearchConfig] = None,
                  cfg: Optional[TestbedConfig] = None) -> RunResult:
    """The paper's dedicated environment: 16 always-on execution nodes."""
    workload = workload or PolymorphSearchConfig()
    cfg = cfg or TestbedConfig()
    env = Environment()
    scheduler = CondorScheduler(env, match_delay_s=cfg.match_delay_s)
    for i in range(cfg.max_exec_instances):
        scheduler.register_node(ExecutionNodeHandle(
            f"dedicated-{i}", transfer_mb_per_s=cfg.node_transfer_mb_per_s))

    ctx = WorkflowContext(env, scheduler)
    run = build_polymorph_workflow(workload)
    start = env.now
    env.run(until=run.workflow.start(ctx))

    result = RunResult(
        mode="dedicated",
        turnaround_s=run.workflow.turnaround,
        run_start=start,
        run_end=env.now,
        shutdown_time_s=None,
        queue_series=scheduler.series["queue_size"],
        nodes_series=scheduler.series["nodes_registered"],
        jobs_completed=len(scheduler.completed_jobs()),
        trace=scheduler.trace,
    )
    return result.finalize()


# ---------------------------------------------------------------------------
# Elastic run on the full RESERVOIR stack (Fig. 11 right)
# ---------------------------------------------------------------------------

def deploy_elastic(env: Environment, cfg: TestbedConfig, service_id: str
                   ) -> tuple[ServiceManager, ManagedService, CondorScheduler]:
    """Build the elastic testbed in ``env`` and deploy the polymorph service
    on it; returns the Service Manager, the service and its scheduler.

    The hosts, the image repository (the exec image prestaged on every host
    when ``cfg`` asks), the VEEM, the Service Manager, the Condor scheduler
    and its virtual cluster, then the deployment (``env`` runs until it
    completes) and the monitoring agent, which publishes the KPIs the
    rules of ``cfg.trigger_mode`` read.
    """
    # -- infrastructure -----------------------------------------------------
    timings = HypervisorTimings(
        define_s=cfg.define_s, boot_s=cfg.boot_s, shutdown_s=cfg.shutdown_s)
    repo = ImageRepository(bandwidth_mb_per_s=cfg.image_bandwidth_mb_per_s)
    veem = VEEM(env, repository=repo)
    for i in range(cfg.n_hosts):
        veem.add_host(Host(env, f"host-{i}", cpu_cores=cfg.host_cpu_cores,
                           memory_mb=cfg.host_memory_mb, timings=timings))
    sm = ServiceManager(env, veem)

    manifest = polymorph_manifest(cfg)
    if cfg.prestage_images:
        exec_file = manifest.file("exec-image")
        repo.add(exec_file.file_id, exec_file.size_mb, href=exec_file.href)
        for host in veem.hosts:
            host.prestage(exec_file.file_id)

    # -- application glue -----------------------------------------------------
    scheduler = CondorScheduler(env, match_delay_s=cfg.match_delay_s,
                                trace=veem.trace)
    cluster = VirtualCluster(
        env, veem, scheduler,
        registration_delay_s=cfg.registration_delay_s,
        trace=veem.trace,
    )

    service = sm.deploy(manifest, service_id=service_id,
                        drivers={"exec": CondorExecDriver(cluster)})
    env.run(until=service.deployment)

    # -- monitoring agents (§6.1.2: agent on the Grid Management service) ----
    agent = MonitoringAgent(env, service_id=service_id,
                            component="GridMgmtService", network=sm.network)
    agent.expose(QUEUE_KPI, lambda: scheduler.queue_size,
                 frequency_s=cfg.monitoring_period_s, units="jobs")
    agent.expose(INSTANCES_KPI, lambda: cluster.instance_count,
                 frequency_s=cfg.monitoring_period_s)
    agent.expose(IDLE_KPI, lambda: scheduler.idle_node_count,
                 frequency_s=cfg.monitoring_period_s)
    if cfg.trigger_mode == "infra":
        from ..monitoring.measurements import AttributeType

        def utilisation() -> float:
            registered = scheduler.node_count
            if registered == 0:
                return 0.0
            return 100.0 * scheduler.running_jobs / registered

        agent.expose(UTIL_KPI, utilisation,
                     frequency_s=cfg.monitoring_period_s,
                     type=AttributeType.DOUBLE)
    return sm, service, scheduler


def run_elastic(workload: Optional[PolymorphSearchConfig] = None,
                cfg: Optional[TestbedConfig] = None) -> RunResult:
    """Deploy the manifest through the Service Manager and run the search."""
    workload = workload or PolymorphSearchConfig()
    cfg = cfg or TestbedConfig()
    env = Environment()
    sm, service, scheduler = deploy_elastic(env, cfg, "polymorph-1")

    # -- run the search --------------------------------------------------------
    ctx = WorkflowContext(env, scheduler)
    run = build_polymorph_workflow(workload)
    start = env.now
    env.run(until=run.workflow.start(ctx))
    run_end = env.now

    # Let the scale-down rules deallocate everything (complete shutdown).
    horizon = run_end + 4 * 3600
    while env.now < horizon:
        if (service.lifecycle.instance_count("exec") == 0
                and scheduler.node_count == 0):
            break
        next_t = min(env.now + 30, horizon)
        env.run(until=next_t)
    shutdown_time = (env.now - start
                     if service.lifecycle.instance_count("exec") == 0
                     else None)

    exec_series = service.lifecycle.accountant.series("exec")
    result = RunResult(
        mode="elastic",
        turnaround_s=run.workflow.turnaround,
        run_start=start,
        run_end=run_end,
        shutdown_time_s=shutdown_time,
        queue_series=scheduler.series["queue_size"],
        nodes_series=exec_series if exec_series is not None
        else TimeSeries("exec_allocated", initial=0, start=start),
        jobs_completed=len(scheduler.completed_jobs()),
        rule_firings=service.interpreter.stats(),
        trace=sm.trace,
    )
    return result.finalize()


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------

def table3(dedicated: RunResult, elastic: RunResult) -> dict[str, float]:
    """Compute the paper's Table 3 rows from the two runs.

    The percentage rows follow the paper's arithmetic: the resource-usage
    saving is the ratio of time-averaged node counts (1 − 10.49/16 ≈
    34.46% in the paper), and the extra run time is the relative turn-around
    increase (+7.15% in the paper).
    """
    saving = 1.0 - elastic.mean_nodes_run / dedicated.mean_nodes_run
    extra = (elastic.turnaround_s - dedicated.turnaround_s) \
        / dedicated.turnaround_s
    return {
        "dedicated_turnaround_s": dedicated.turnaround_s,
        "cloud_turnaround_s": elastic.turnaround_s,
        "cloud_shutdown_s": elastic.shutdown_time_s,
        "dedicated_mean_nodes_run": dedicated.mean_nodes_run,
        "cloud_mean_nodes_run": elastic.mean_nodes_run,
        "cloud_mean_nodes_until_shutdown": elastic.mean_nodes_until_shutdown,
        "resource_usage_saving": saving,
        "extra_run_time": extra,
    }
