"""Federation scale harness: ``python -m repro scale``.

The paper pitches the architecture at *on-demand provisioning for large
federated clouds*; the acceptance scenarios exercise it at a handful of
sites. This harness is the scale sweep those claims are judged by: stand up
an N-site federation through the real
:class:`~repro.control.plane.ControlPlane` (per-site VEEM, ServiceManager
and guaranteed-capacity admission), submit tens of thousands of services
across weighted tenants, drive every service with an SAP-style session
profile published through its
:class:`~repro.monitoring.agents.MonitoringAgent` (bursts trip the
manifest's elasticity rules, so the federation scales VMs up and back
down), and report what the run cost:

* **events/sec** — kernel events processed over wall-clock time;
* **wall-clock per simulated hour** — how much real time one simulated
  hour costs at this scale;
* **peak RSS per 1k peak VMs** — the memory footprint the federation's
  state (hosts, VMs, services, series, trace) imposes, normalised by
  fleet size (summed across every worker process under ``--procs``).

Everything is deterministic under ``random_seed``: session profiles come
from :class:`~repro.sim.rng.RandomStreams`, and the kernel replays
identically.

One :class:`FederationRun` simulates the federation's stack over a set of
sites. With ``procs=1`` it runs over every site and admits live: that run
is the differential oracle. With ``procs > 1`` the federation is sharded:
the coordinator runs the *real* control plane to take every admission
decision, then deals the sites across a :class:`~repro.sim.shard.ShardPool` of
worker processes, each a :class:`FederationRun` that replays its sites'
decisions as pinned submissions, and drives them in parallel through epoch
barriers. Decision outcomes (admission verdicts, peak/final fleet, per-site
fleet sizes) are identical to ``procs=1`` by construction — see DESIGN §14
and :func:`verify_against_oracle`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from ..cloud.capacity import HostType
from ..cloud.images import ImageRepository
from ..cloud.veeh import Host, HypervisorTimings
from ..cloud.veem import VEEM
from ..control.plane import ControlPlane
from ..control.requests import Admitted, Queued
from ..core.manifest.builder import ManifestBuilder
from ..monitoring.agents import MonitoringAgent
from ..obs.audit import TimeConstraintAuditor, audit_violation_strings
from ..obs.metrics import SnapshotCursor, canonical_view
from ..obs.recorder import FLIGHT_RECORDS, dump_flight, flight_snapshot
from ..scenarios.chaos import (
    NetworkPartition,
    install_chaos,
    restrict_event,
    sites_of,
)
from ..scenarios.invariants import check_all
from ..scenarios.workloads import (
    SessionProfile,
    WORKLOAD_PARAMS,
    WORKLOADS,
    draw_profiles,
)
from ..sim.kernel import Environment
from ..sim.shard import (
    EpochReport,
    ShardPool,
    partition_round_robin,
    read_peak_rss_kb,
)

__all__ = [
    "FederationRun",
    "ScaleConfig",
    "ScaleReport",
    "make_shard",
    "run_scale",
    "verify_against_oracle",
]

#: KPI the session drivers publish and the elasticity rules react to.
SESSIONS_KPI = "scale.app.sessions"

#: Simulated seconds the initial fleet gets to deploy before monitoring
#: agents attach and the census starts (the same in every run).
WARMUP_S = 60.0

#: Live-VM census period (peak-fleet tracking), simulated seconds.
SAMPLE_PERIOD_S = 60.0

#: Homogeneous host and VM shapes: the §6.1.2 testbed host, a 1-core VM
#: and a ceiling of two instances per service.
HOST_CPU = 4.0
HOST_MEMORY_MB = 8192.0
VM_CPU = 1.0
VM_MEMORY_MB = 1024.0
IMAGE_MB = 64.0
MAX_INSTANCES = 2


@dataclass(frozen=True)
class ScaleConfig:
    """Shape of one federation scale run."""

    sites: int = 100
    services: int = 10_000
    hours: float = 1.0
    tenants: int = 8
    random_seed: int = 2010

    #: worker processes; 1 = the in-process oracle path
    procs: int = 1
    #: simulated seconds between shard barriers under ``procs > 1``
    epoch_s: float = 600.0

    #: session-KPI publication period (per service)
    monitor_period_s: float = 60.0
    #: fraction of services whose burst exceeds the scale-up threshold
    elastic_fraction: float = 0.25
    #: run a defragmenting migration pass (repro.solver.defrag) per site
    #: every this many simulated hours; 0 = off
    defrag_every_h: float = 0.0

    #: named workload generator (repro.scenarios.workloads registry) and
    #: its parameters as sorted (key, value) pairs — tuples so the config
    #: stays frozen/picklable
    workload: str = "baseline"
    workload_params: tuple = ()
    #: chaos events (repro.scenarios.chaos dataclasses) injected during
    #: the run; site-local events are sharded with their sites
    chaos: tuple = ()
    #: extra simulated seconds after the workload window, so in-flight
    #: deploys/heals settle before end-of-run invariant checks
    settle_s: float = 0.0
    #: run the repro.scenarios.invariants suite at end of run (per shard
    #: under ``procs > 1``) and report violations on the ScaleReport
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.sites <= 0 or self.services <= 0:
            raise ValueError("sites and services must be positive")
        # Written so that NaN fails them too: a NaN or infinite run
        # length, epoch or period would never end the run.
        for name in ("hours", "epoch_s", "monitor_period_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number above 0, got {value}")
        for name in ("defrag_every_h", "settle_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite number of at "
                                 f"least 0, got {value}")
        if self.tenants <= 0:
            raise ValueError("need at least one tenant")
        if not 0.0 <= self.elastic_fraction <= 1.0:
            raise ValueError("elastic_fraction must be in [0, 1]")
        if self.procs <= 0:
            raise ValueError("procs must be positive")
        if self.duration_s + self.settle_s <= WARMUP_S:
            raise ValueError(f"the run must outlast the {WARMUP_S:g} s "
                             f"warm-up")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             f"have {sorted(WORKLOADS)}")
        allowed = WORKLOAD_PARAMS[self.workload]
        unknown = sorted({key for key, _ in self.workload_params}
                         - set(allowed))
        if unknown:
            raise ValueError(
                f"workload {self.workload!r} has no parameter(s) "
                f"{', '.join(unknown)}; it takes "
                f"{', '.join(allowed) if allowed else 'none'}")
        known = {f"site-{s}" for s in range(self.sites)}
        for event in self.chaos:
            if isinstance(event, NetworkPartition) and self.procs > 1:
                # The control plane lives in the coordinator under
                # sharding; a partition there cannot reach the workers.
                raise ValueError(
                    "NetworkPartition chaos requires procs=1")
            unknown = set(sites_of(event)) - known
            if unknown:
                raise ValueError(
                    f"chaos event {event!r} names unknown site(s) "
                    f"{sorted(unknown)}")

    @property
    def duration_s(self) -> float:
        return self.hours * 3600.0

    @property
    def services_per_site(self) -> int:
        return math.ceil(self.services / self.sites)

    @property
    def hosts_per_site(self) -> int:
        """Size each pool so the whole submission's *ceiling* is admissible
        (guaranteed capacity): every service may reach ``MAX_INSTANCES``."""
        per_host = min(int(HOST_CPU // VM_CPU),
                       int(HOST_MEMORY_MB // VM_MEMORY_MB))
        ceiling = self.services_per_site * MAX_INSTANCES
        return math.ceil(ceiling / per_host) + 1

    @property
    def host_type(self) -> HostType:
        return HostType(HOST_CPU, HOST_MEMORY_MB)


@dataclass
class ScaleReport:
    """What the run did and what it cost."""

    sites: int
    services: int
    hours: float
    admitted: int
    queued: int
    rejected: int
    peak_vms: int
    peak_queue_depth: int
    events_processed: int
    dead_skipped: int
    wall_s: float
    peak_rss_kb: int
    procs: int = 1
    final_vms: int = 0
    #: per-site active fleet at the end of the run, in site order —
    #: the decision-outcome fingerprint the oracle comparison uses
    site_fleets: tuple = ()
    #: invariant violations (stringified), when cfg.check_invariants ran
    violations: tuple = ()
    #: federation-wide canonical metric view (owned instruments only,
    #: plane labels stripped) — merged across workers under ``procs > 1``
    metrics: dict = field(default_factory=dict)
    #: time-constraint audit: rule firings checked, late invocations
    audit_findings: int = 0
    audit_violations: tuple = ()
    #: flight-recorder snapshot (recent trace records) when the run ended
    #: with violations; empty otherwise. Not part of decision outcomes.
    flight: tuple = ()

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s else 0.0

    @property
    def wall_s_per_sim_hour(self) -> float:
        return self.wall_s / self.hours

    @property
    def rss_mb_per_1k_vms(self) -> float:
        """Peak RSS (all processes, interpreters included) per 1000 VMs of
        peak fleet — a coarse, comparable footprint figure."""
        if self.peak_vms <= 0:
            return 0.0
        return (self.peak_rss_kb / 1024.0) / (self.peak_vms / 1000.0)

    def decision_outcomes(self) -> dict:
        """The deterministic decision fingerprint: everything here must be
        bit-identical between ``procs=1`` and any sharded run."""
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "rejected": self.rejected,
            "peak_vms": self.peak_vms,
            "final_vms": self.final_vms,
            "site_fleets": tuple(self.site_fleets),
            "metrics": dict(self.metrics),
            "audit_findings": self.audit_findings,
            "audit_violations": tuple(self.audit_violations),
        }

    def render(self) -> str:
        mode = (f"{self.procs} worker process(es)" if self.procs > 1
                else "single process")
        lines = [
            f"federation:        {self.sites} site(s), "
            f"{self.services} service(s), {self.hours:g} simulated hour(s)",
            f"execution:         {mode}",
            f"admitted:          {self.admitted} "
            f"(queued {self.queued}, rejected {self.rejected})",
            f"peak VMs:          {self.peak_vms} "
            f"(final {self.final_vms})",
            f"peak queue depth:  {self.peak_queue_depth}",
            f"events processed:  {self.events_processed} "
            f"({self.dead_skipped} dead entries skipped)",
            f"events/sec:        {self.events_per_sec:,.0f}",
            f"wall-clock/sim-h:  {self.wall_s_per_sim_hour:.2f} s",
            f"peak RSS:          {self.peak_rss_kb / 1024:.1f} MB "
            f"({self.rss_mb_per_1k_vms:.1f} MB per 1k VMs)",
        ]
        lines.append(
            f"audit:             {self.audit_findings} rule firing(s), "
            f"{len(self.audit_violations)} late")
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations)
        if self.audit_violations:
            lines.append(
                f"TIME-CONSTRAINT VIOLATIONS "
                f"({len(self.audit_violations)}):")
            lines.extend(f"  - {v}" for v in self.audit_violations)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _scale_manifest(cfg: ScaleConfig):
    """One shared SAP-style manifest: a session-serving ``app`` tier whose
    session KPI drives a scale-up/scale-down rule pair. Sharing the object
    across submissions is deliberate — admission memoisation keys on
    manifest identity."""
    b = ManifestBuilder("sap-session-svc")
    b.component("app", image_mb=IMAGE_MB, cpu=VM_CPU, memory_mb=VM_MEMORY_MB,
                initial=1, minimum=1, maximum=MAX_INSTANCES)
    b.kpi("app", "app", SESSIONS_KPI,
          frequency_s=cfg.monitor_period_s, default=30)
    b.rule("up", f"@{SESSIONS_KPI} > 80", "deployVM(app)",
           time_constraint_ms=120_000, cooldown_s=4 * cfg.monitor_period_s)
    # The rules' time constraints set the interpreter's evaluation period
    # (min/2): at 120 s both, each service evaluates once per simulated
    # minute instead of every 2.5 s — the difference between a harness that
    # measures the kernel and one that measures the rule engine.
    b.rule("down", f"@{SESSIONS_KPI} < 20", "undeployVM(app)",
           time_constraint_ms=120_000, cooldown_s=4 * cfg.monitor_period_s)
    return b.build()


def _build_site_veem(env: Environment, cfg: ScaleConfig, name: str,
                     trace) -> VEEM:
    """One site's VEEM with the configured homogeneous host pool."""
    timings = HypervisorTimings(define_s=1.0, boot_s=10.0, shutdown_s=2.0)
    veem = VEEM(env, name=name, trace=trace,
                repository=ImageRepository(bandwidth_mb_per_s=1000.0))
    for h in range(cfg.hosts_per_site):
        veem.add_host(Host(env, f"{name}-h{h}",
                           cpu_cores=HOST_CPU,
                           memory_mb=HOST_MEMORY_MB,
                           timings=timings))
    return veem


def _session_driver(env, state, profile: SessionProfile, quiet_s: float):
    """Replay one service's session stream.

    A profile with an explicit ``schedule`` is replayed point-for-point
    (piecewise-constant, last level held). Otherwise the classic SAP tide:
    ramp up in steps, hold the peak, drain (a service that scaled up
    drains below the scale-down threshold, releasing its extra VM), then
    settle back to the baseline.
    """
    if profile.schedule:
        last_at = 0.0
        for at_s, level in profile.schedule:
            if at_s > last_at:
                yield env.timeout(at_s - last_at)
                last_at = at_s
            state["sessions"] = level
        return
    yield env.timeout(profile.start_s)
    ramp = profile.ramp
    for level in ramp:
        state["sessions"] = level
        yield env.timeout(profile.hold_s / len(ramp))
    state["sessions"] = profile.drain_level
    yield env.timeout(quiet_s)
    state["sessions"] = 30          # baseline: between both thresholds


def _vm_census(env, veems, samples: list, period_s: float):
    """Periodic live-VM census across the given sites.

    Samples are offset by half a period from the census start so they
    fall *between* event instants (VM transitions cluster on the monitor
    grid): the count at each sample time is then independent of
    same-instant event ordering, which is what lets sharded and
    single-process runs agree sample-for-sample. Each site's count is
    :attr:`~repro.cloud.veem.VEEM.active_vm_count`, which costs its live
    VMs, not every VM the site ever had.
    """
    yield env.timeout(period_s / 2.0)
    while True:
        total = 0
        for veem in veems:
            total += veem.active_vm_count
        samples.append((env.now, total))
        yield env.timeout(period_s)


def _defrag_passes(env, cfg: ScaleConfig, veems):
    """Periodic per-site defragmentation passes (``--defrag-every H``).

    Each site plans (:func:`repro.solver.defrag.plan_defrag`) and executes
    its own migration batch, one site after another within the process so
    the whole pass is deterministic; with admissions all decided at t=0
    and MIGRATING VMs still counted active, the passes are invisible to
    the sharded-vs-oracle decision comparison — workers and oracle run
    the identical per-site plans.
    """
    from ..solver.defrag import execute_plan, plan_defrag

    # Quarter-period offset: plan *between* monitor instants (like the
    # census's half-period offset) so a plan never races a same-instant
    # scale event whose ordering could differ between the oracle's
    # all-site environment and a shard's subset environment.
    period_s = cfg.defrag_every_h * 3600.0
    yield env.timeout(SAMPLE_PERIOD_S / 4.0)
    while True:
        yield env.timeout(period_s)
        # Plan every site at this same instant (planning is synchronous,
        # execution runs as per-site processes): a site's plan is a pure
        # function of its own state, never of another site's progress.
        for veem in veems:
            plan = plan_defrag(veem)
            if plan:
                execute_plan(veem, plan)


def _admit(control: ControlPlane, cfg: ScaleConfig, manifest,
           profiles=None):
    """Register the tenants, then admit the services; returns ``(profiles,
    admitted requests, (admitted, queued, rejected))``.

    Live (``profiles`` None), the control plane picks each site, and the
    admitted services' profiles are drawn from the seeded stream in
    admission order, so every run replays the identical workload. Pinned,
    each profile is re-submitted to its site: per-site admission state
    sees the coordinator's plan restricted to these sites, so anything
    but :class:`~repro.control.requests.Admitted` is an oracle divergence and
    raises.
    """
    for t in range(cfg.tenants):
        control.register_tenant(f"tenant-{t}", weight=1 + t % 3)
    requests = []
    if profiles is not None:
        for profile in profiles:
            outcome = control.submit(
                profile.tenant, manifest,
                service_id=profile.service_id, site=profile.site)
            if not isinstance(outcome, Admitted):
                raise RuntimeError(
                    f"pinned replay of {profile.service_id} on "
                    f"{profile.site} was not admitted: {outcome!r}")
            requests.append(outcome.request)
        return profiles, requests, (len(requests), 0, 0)
    queued = rejected = 0
    for i in range(cfg.services):
        outcome = control.submit(f"tenant-{i % cfg.tenants}", manifest,
                                 service_id=f"svc-{i}")
        if isinstance(outcome, Admitted):
            requests.append(outcome.request)
        elif isinstance(outcome, Queued):
            queued += 1
        else:
            rejected += 1
    return (draw_profiles(cfg, requests), requests,
            (len(requests), queued, rejected))


# ---------------------------------------------------------------------------
# One federation run: the oracle, or one shard of a sharded run
# ---------------------------------------------------------------------------

class FederationRun:
    """The federation's stack over ``site_names``, driven through epochs.

    With ``profiles=None`` it admits every service live through its own
    control plane: over all sites, that is the ``--procs 1`` oracle. Given
    the coordinator's profiles it replays them as pinned submissions, then
    takes the telemetry baseline: that is one shard worker
    (:func:`make_shard`). Both modes build in one order — sites, chaos
    restricted to them, admission, session drivers, warm-up, agents,
    census, defrag — since the kernel orders same-instant events by
    creation, and both report through :meth:`run_epoch` / :meth:`finish`.
    """

    def __init__(self, cfg: ScaleConfig, site_names, *, shard: int = 0,
                 profiles=None, profiler=None, say=lambda _msg: None):
        self.cfg = cfg
        self.shard = shard
        self.site_names = tuple(site_names)
        self._say = say
        env = self.env = Environment()
        if profiler is not None:
            profiler.attach(env)
        control = self.control = ControlPlane(env)

        say(f"building {len(self.site_names)} site(s) × "
            f"{cfg.hosts_per_site} host(s) ...")
        self.veems = []
        for name in self.site_names:
            veem = _build_site_veem(env, cfg, name, control.trace)
            self.veems.append(veem)
            control.add_site(name, veem)
        # Chaos goes in before any kernel advance so its delays line up
        # with every other run's (timeouts are relative to install time).
        chaos = [local for event in cfg.chaos
                 if (local := restrict_event(event, self.site_names))
                 is not None]
        if chaos:
            install_chaos(env, chaos,
                          veems_by_site=dict(zip(self.site_names,
                                                 self.veems)),
                          control=control,
                          managers_by_site={cs.name: cs.manager
                                            for cs in control.sites})

        say(f"submitting {cfg.services} service(s) "
            f"across {cfg.tenants} tenant(s) ...")
        pinned = profiles is not None
        profiles, requests, self.tally = _admit(
            control, cfg, _scale_manifest(cfg), profiles)
        # Telemetry baseline: a pinned replay just re-incremented the
        # submission counters the coordinator's planning registry already
        # holds, so this first (discarded) snapshot keeps them out of every
        # shipped delta. The live run's registry is the federation's own
        # and is read directly, never snapshotted.
        self._cursor = None
        if pinned:
            self._cursor = SnapshotCursor()
            self._cursor.snapshot(env.metrics)

        # Session tides: every service gets one burst; a seeded fraction
        # bursts past the scale-up threshold and grows its app tier until
        # the tide drains.
        states = []
        for profile in profiles:
            state = {"sessions": 30}
            env.process(
                _session_driver(env, state, profile,
                                quiet_s=6 * cfg.monitor_period_s),
                name=f"sessions:{profile.service_id}")
            states.append(state)

        say("deploying and wiring monitoring agents ...")
        # Let the initial fleet deploy, then attach one agent per service so
        # the KPI stream flows through each site's monitoring network.
        env.run(until=WARMUP_S)
        managers = {cs.name: cs.manager for cs in control.sites}
        for request, state in zip(requests, states):
            if request.service is None:
                continue
            agent = MonitoringAgent(env, service_id=request.service_id,
                                    component="app",
                                    network=managers[request.site].network)
            agent.expose(SESSIONS_KPI, lambda s=state: s["sessions"],
                         frequency_s=cfg.monitor_period_s, units="sessions")
        self.samples: list = []
        env.process(_vm_census(env, self.veems, self.samples,
                               SAMPLE_PERIOD_S), name="vm-census")
        if cfg.defrag_every_h > 0:
            env.process(_defrag_passes(env, cfg, self.veems),
                        name="defrag-pass")
        self._audit_cursor = 0
        self._audit_violated = False

    def _audit(self) -> tuple:
        """Audit the rule firings closed since the last call, exactly once:
        firings open and close within one dispatch, so every firing visible
        here is final, and the span-id cursor never re-audits one. The
        union across epochs equals a single end-of-run audit."""
        trace = self.control.trace
        findings = TimeConstraintAuditor(trace).audit(
            min_span_id=self._audit_cursor).findings
        if trace.spans:
            self._audit_cursor = max(trace.spans) + 1
        late = audit_violation_strings(findings)
        if late:
            self._audit_violated = True
        metrics = self.env.metrics
        metrics.counter("obs.audit.firings").inc(len(findings))
        metrics.counter("obs.audit.violations").inc(len(late))
        return tuple(findings)

    def _report(self, findings: tuple = (), **final) -> EpochReport:
        return EpochReport(
            shard=self.shard, now=self.env.now,
            events_processed=self.env.events_processed,
            metrics=(self._cursor.snapshot(self.env.metrics)
                     if self._cursor is not None else None),
            findings=findings, **final)

    def _crash_dump(self, exc: BaseException):
        """Dump the trace's tail and raise an error naming the dump, chained
        to ``exc`` (across the pipe, the coordinator's ShardError carries
        it)."""
        path = os.path.join(
            tempfile.gettempdir(),
            f"repro-flight-shard{self.shard}-pid{os.getpid()}.jsonl")
        trace = self.control.trace
        try:
            dump_flight(path, flight_snapshot(trace), reason=repr(exc),
                        meta={"capacity": FLIGHT_RECORDS,
                              "seen": len(trace.records)})
        except OSError:
            raise exc from None
        raise RuntimeError(
            f"shard {self.shard} failed; flight recorder dumped to "
            f"{path}") from exc

    def run_epoch(self, until: float) -> EpochReport:
        """Advance to ``until``; report the epoch's audit findings and,
        when pinned, the metric delta since the last report."""
        try:
            self.env.run(until=until)
            if (self.cfg.check_invariants
                    and until >= self.cfg.duration_s + self.cfg.settle_s):
                # The simulated run is over; the checks start with this
                # audit, so the message comes before it.
                self._say("checking invariants ...")
            return self._report(self._audit())
        except Exception as exc:
            self._crash_dump(exc)

    def finish(self) -> EpochReport:
        """The closing report, after the last epoch: invariants (their
        tally lands in the registry), the flight snapshot if they or an
        audit failed, and the payload — the metric snapshot last, so every
        increment ships."""
        try:
            violations: list = []
            if self.cfg.check_invariants:
                violations = [
                    str(v) for v in check_all(self.control, self.veems,
                                              self.control.trace,
                                              metrics=self.env.metrics)]
            payload = {
                "samples": self.samples,
                "site_fleets": [
                    (name, veem.active_vm_count)
                    for name, veem in zip(self.site_names, self.veems)],
                "dead_skipped": self.env.dead_skipped,
                "violations": violations,
            }
            if violations or self._audit_violated:
                payload["flight"] = flight_snapshot(self.control.trace)
            return self._report(peak_rss_kb=read_peak_rss_kb(),
                                payload=payload)
        except Exception as exc:
            self._crash_dump(exc)


def make_shard(spec: dict) -> FederationRun:
    """The :class:`~repro.sim.shard.ShardPool` factory: ``spec`` holds one
    worker's :class:`FederationRun` arguments (module-level, so the spawn
    pickler ships it by reference)."""
    return FederationRun(**spec)


def _fold(cfg: ScaleConfig, control: ControlPlane, tally: tuple,
          epochs: list, finals: list, wall_start: float) -> ScaleReport:
    """Fold the runs' epoch and closing reports into the federation's.

    ``control`` is the plane that decided admission. Every report's metric
    delta merges, in barrier order, into that plane's registry, which
    already holds the submission counters the workers baselined away; its
    audit findings join the union. Census samples share one time grid, so
    the federation-wide fleet at each sample is the per-run sum. The
    ``--procs 1`` oracle is the one-run case: its reports carry no
    snapshot, so the view is its own registry as is.
    """
    registry = control.env.metrics
    findings: list = []
    for report in epochs + finals:
        if report.metrics:
            registry.merge_snapshot(report.metrics)
        findings.extend(report.findings)
    merged: dict[float, int] = {}
    fleets: dict[str, int] = {}
    violations: list = []
    flight: list = []
    for report in finals:
        for t, total in report.payload["samples"]:
            merged[t] = merged.get(t, 0) + total
        fleets.update(report.payload["site_fleets"])
        violations.extend(report.payload["violations"])
        flight.extend(dict(rec, shard=report.shard)
                      for rec in report.payload.get("flight", ()))
    flight.sort(key=lambda r: (r["time"], r["shard"]))
    site_fleets = tuple((f"site-{s}", fleets.get(f"site-{s}", 0))
                        for s in range(cfg.sites))
    metrics_view = canonical_view(registry)
    admitted, queued, rejected = tally
    wall_s = time.perf_counter() - wall_start
    return ScaleReport(
        sites=cfg.sites, services=cfg.services, hours=cfg.hours,
        admitted=admitted, queued=queued, rejected=rejected,
        peak_vms=max(merged.values(), default=0),
        peak_queue_depth=int(control.series["queue.depth"].maximum()),
        events_processed=sum(r.events_processed for r in finals),
        dead_skipped=sum(r.payload["dead_skipped"] for r in finals),
        wall_s=wall_s,
        # This process, plus the workers when they are processes of their
        # own.
        peak_rss_kb=read_peak_rss_kb() + (
            sum(r.peak_rss_kb for r in finals) if cfg.procs > 1 else 0),
        procs=cfg.procs,
        final_vms=sum(count for _name, count in site_fleets),
        site_fleets=site_fleets,
        violations=tuple(violations),
        metrics=metrics_view,
        audit_findings=len(findings),
        audit_violations=tuple(audit_violation_strings(findings)),
        flight=tuple(flight),
    )


def run_scale(cfg: Optional[ScaleConfig] = None, *,
              progress=None, profiler=None) -> ScaleReport:
    """Run one federation scale sweep and measure it.

    ``profiler`` (a :class:`~repro.obs.profile.SimProfiler`) attaches to
    the kernel for the run; single-process only — a worker's kernel lives
    in another process, out of the hook's reach.
    """
    cfg = cfg or ScaleConfig()
    say = progress or (lambda _msg: None)
    if cfg.procs > 1 and profiler is not None:
        raise ValueError("profiling requires procs=1")
    wall_start = time.perf_counter()
    end = cfg.duration_s + cfg.settle_s
    site_names = [f"site-{s}" for s in range(cfg.sites)]
    if cfg.procs == 1:
        run = FederationRun(cfg, site_names, profiler=profiler, say=say)
        say(f"running {cfg.hours:g} simulated hour(s) ...")
        epochs = [run.run_epoch(end)]
        return _fold(cfg, run.control, run.tally, epochs, [run.finish()],
                     wall_start)

    # Plan admission with the REAL control plane. The planning environment
    # never runs: submission outcomes are decided synchronously at submit()
    # time (there are no capacity releases during a scale run), so hostless
    # sites with explicitly-shaped admission pools reproduce the oracle's
    # decisions exactly, without building any host or deploying any VM in
    # the coordinator.
    say(f"planning admission for {cfg.services} service(s) "
        f"across {cfg.sites} site(s) ...")
    plan_env = Environment()
    control = ControlPlane(plan_env)
    for name in site_names:
        control.add_site(name, VEEM(plan_env, name=name,
                                    trace=control.trace),
                         pool_hosts=cfg.hosts_per_site,
                         host_type=cfg.host_type)
    profiles, _requests, tally = _admit(control, cfg, _scale_manifest(cfg))

    # Deal the sites round-robin; each worker gets its sites' profiles in
    # global submission order. Those pinned replays and the epoch barriers
    # are the only cross-process traffic.
    specs = []
    for shard, bucket in enumerate(partition_round_robin(site_names,
                                                         cfg.procs)):
        owned = set(bucket)
        specs.append({"cfg": cfg, "site_names": tuple(bucket),
                      "shard": shard,
                      "profiles": tuple(p for p in profiles
                                        if p.site in owned)})

    say(f"running {cfg.hours:g} simulated hour(s) on "
        f"{cfg.procs} worker process(es), epoch {cfg.epoch_s:g} s ...")
    epochs = []
    with ShardPool(make_shard, specs) as pool:
        now = WARMUP_S
        while now < end:
            now = min(now + cfg.epoch_s, end)
            epochs += pool.epoch(now)
        finals = pool.stop()
    return _fold(cfg, control, tally, epochs, finals, wall_start)


def verify_against_oracle(cfg: ScaleConfig, *,
                          progress=None) -> tuple[ScaleReport, ScaleReport,
                                                  list[str]]:
    """Run sharded and single-process with the same config; returns both
    reports plus a list of decision-outcome divergences (empty = agree)."""
    if cfg.procs <= 1:
        raise ValueError("verify_against_oracle needs procs > 1")
    sharded = run_scale(cfg, progress=progress)
    oracle = run_scale(dataclasses.replace(cfg, procs=1),
                       progress=progress)
    ours = sharded.decision_outcomes()
    theirs = oracle.decision_outcomes()
    divergences = [
        f"{key}: sharded={ours[key]!r} oracle={theirs[key]!r}"
        for key in theirs
        if ours[key] != theirs[key]
    ]
    return sharded, oracle, divergences
