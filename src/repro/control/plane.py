"""The multi-tenant provisioning control plane.

The front door in front of :class:`~repro.core.service_manager.manager.
ServiceManager`/:class:`~repro.cloud.veem.VEEM`: named tenants submit
manifests to :meth:`ControlPlane.submit` and get a typed outcome back —
:class:`~.requests.Admitted`, :class:`~.requests.Queued` or
:class:`~.requests.Rejected` — instead of racing each other for hosts and
failing loudly on contention (the seed behaviour, kept reachable in
``tests/test_multi_service.py``).

Pipeline per request:

1. **Hard screens** — unknown-tenant, backpressure (bounded queue), and
   *can-never-fit* checks (envelope exceeds the tenant's quota even against
   zero usage, or exceeds every site's whole pool) reject immediately.
2. **Admission** — reuses :func:`repro.cloud.capacity.demand_envelope` and
   per-site :class:`~repro.cloud.capacity.AdmissionController`\\ s:
   a request is admitted only if its *worst case* still fits the chosen
   site's pool alongside everything already admitted there, and fits the
   tenant's quota. Otherwise it queues.
3. **Fair drain** — a weighted round-robin scheduler
   (:class:`~.scheduler.FairScheduler`) dequeues across tenants as
   capacity frees up (undeploys, retry-rejections); per-tenant FIFO order
   is preserved and a blocked tenant never stalls the others.
4. **Federated site selection** — each request is placed on the *best*
   eligible member site (manifest ``avoid``/``require_trusted`` placements
   respected, ``favour`` preferred, then greatest admission headroom) of a
   :class:`repro.cloud.federation.Site`-shaped federation, not one fixed
   VEEM.
5. **Deployment drive with backpressure** — admitted requests are deployed
   through the site's ServiceManager; transient infrastructure failures
   (:class:`~repro.cloud.errors.CapacityError`, ``ScaleError``) are
   retried with exponential backoff (:class:`~.backpressure.RetryPolicy`)
   before a terminal rejection returns the reservation.
6. **Solver rescue** — when the greedy placer's one-at-a-time packing
   fails with a :class:`~repro.cloud.errors.CapacityError`, the exact
   constraint solver (:mod:`repro.solver`) re-plans the whole instance
   set jointly against live hosts; a SAT verdict retries immediately with
   per-instance host pins, UNSAT carries the solver's explanation into
   the terminal :class:`~.requests.Rejected` outcome.

:meth:`ControlPlane.what_if` answers "would this manifest fit, where, at
what committed cost?" without mutating any site — the probe behind
``python -m repro plan``.

Observability: counters (``admitted``/``queued``/``rejected``/``retried``/
``released``), a ``control.plane.queue_wait_s`` histogram observed once
per admission, a ``queue.depth`` step series on a
:class:`~repro.sim.tracing.SeriesRecorder`, and structured ``control``-source
records on the DES trace for every transition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from ..cloud.capacity import (
    AdmissionController,
    HostType,
    demand_envelope,
    plan_capacity,
)
from ..cloud.errors import CapacityError
from ..cloud.federation import Site
from ..cloud.veem import VEEM
from ..core.manifest.model import ServiceManifest
from ..core.service_manager.lifecycle import ScaleError
from ..core.service_manager.manager import ManagedService, ServiceManager
from ..sim.kernel import Environment, Process
from ..sim.tracing import SeriesRecorder, TraceLog
from .backpressure import RetryPolicy
from .requests import (
    Admitted,
    Outcome,
    ProvisioningRequest,
    Queued,
    Rejected,
    RejectCode,
    RejectionReason,
    RequestState,
)
from .scheduler import FairScheduler
from .tenants import Tenant, TenantQuota

__all__ = ["ControlledSite", "ControlPlane"]

#: Infrastructure errors the drive loop treats as transient and retries.
TRANSIENT_ERRORS = (CapacityError, ScaleError)

#: Distinguishes the metric streams of multiple planes sharing one
#: environment (differential tests build several).
_plane_ids = itertools.count(1)


@dataclass
class ControlledSite:
    """One federation member under control-plane management: the site
    identity, its Service Manager, and its guaranteed-capacity admission
    controller."""

    site: Site
    manager: ServiceManager
    admission: AdmissionController

    @property
    def name(self) -> str:
        return self.site.name

    @property
    def headroom(self) -> int:
        return self.admission.headroom


class ControlPlane:
    """Front door mediating many tenants over a federated pool."""

    def __init__(self, env: Environment, *,
                 trace: Optional[TraceLog] = None,
                 retry: Optional[RetryPolicy] = None,
                 max_queue_depth: Optional[int] = None):
        self.env = env
        self.trace = trace if trace is not None else TraceLog(env)
        self.retry = retry if retry is not None else RetryPolicy()
        #: queued requests beyond this are shed with a typed rejection;
        #: None = unbounded queue
        self.max_queue_depth = max_queue_depth
        self.sites: list[ControlledSite] = []
        #: federation members currently cut off by a network partition —
        #: ineligible for every placement until the partition heals
        self._unreachable: set[str] = set()
        self.tenants: dict[str, Tenant] = {}
        self.scheduler = FairScheduler()
        self.requests: dict[str, ProvisioningRequest] = {}
        # The request flow counters are registry-owned (these are admission
        # decisions, not hot-path work); ``stats()`` reads them under their
        # short names.
        metrics = env.metrics
        plane = f"plane{next(_plane_ids)}"
        self._plane_label = plane
        self._m_counters = {
            name: metrics.counter(f"control.plane.{name}", plane=plane)
            for name in ("submitted", "admitted", "queued", "rejected",
                         "retried", "released")
        }
        self._m_queue_wait = metrics.histogram("control.plane.queue_wait_s",
                                               plane=plane)
        # Kept out of ``_m_counters`` so ``stats()`` keeps its shape.
        self._m_solver_rescued = metrics.counter(
            "control.plane.solver_rescued", plane=plane)
        metrics.add_source(self)
        self.series = SeriesRecorder(env)
        self.series.record("queue.depth", 0)
        self._seq = itertools.count(1)
        self._by_service: dict[str, ProvisioningRequest] = {}
        # Solo-plan cache for the can-never-fit screen: hosts_for_ceiling of
        # a manifest packed alone onto a host type (None = an instance
        # exceeds the host outright). Keyed by manifest identity — safe
        # because every screened manifest is retained in ``self.requests``
        # before the screen runs, so ids are never recycled.
        self._solo_ceilings: dict[tuple, Optional[int]] = {}

    def metric_rows(self):
        yield ("control.plane.queue_depth", {"plane": self._plane_label},
               self.scheduler.depth)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_site(self, site: Union[str, Site], veem: Optional[VEEM] = None, *,
                 attributes: Optional[dict] = None,
                 pool_hosts: Optional[int] = None,
                 host_type: Optional[HostType] = None,
                 manager: Optional[ServiceManager] = None,
                 network=None) -> ControlledSite:
        """Register a federation member.

        ``pool_hosts`` defaults to the VEEM's host count and ``host_type``
        to its first host's shape — i.e. the admission controller guarantees
        exactly the physical pool unless told to hold some back.
        """
        if isinstance(site, str):
            if veem is None:
                raise ValueError("add_site(name, ...) needs a veem")
            site = Site(site, veem, attributes or {})
        if any(s.name == site.name for s in self.sites):
            raise ValueError(f"duplicate site name {site.name!r}")
        veem = site.veem
        if pool_hosts is None:
            pool_hosts = len(veem.hosts)
        if host_type is None:
            host_type = (HostType(veem.hosts[0].cpu_cores,
                                  veem.hosts[0].memory_mb)
                         if veem.hosts else HostType())
        if manager is None:
            manager = ServiceManager(self.env, veem, trace=self.trace,
                                     network=network)
        controlled = ControlledSite(
            site=site, manager=manager,
            admission=AdmissionController(pool_hosts, host_type),
        )
        manager.on_undeploy.append(
            lambda service, termination, cs=controlled:
                self._on_undeploy(cs, service, termination))
        self.sites.append(controlled)
        return controlled

    def register_tenant(self, name: str, *,
                        quota: Optional[TenantQuota] = None,
                        weight: int = 1) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        tenant = Tenant(name, quota=quota or TenantQuota(), weight=weight)
        self.tenants[name] = tenant
        self.scheduler.add_tenant(name, weight)
        return tenant

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(self, tenant: str, manifest: ServiceManifest, *,
               service_id: Optional[str] = None,
               drivers: Optional[dict] = None,
               site: Optional[str] = None) -> Outcome:
        """Submit one manifest on behalf of ``tenant``.

        Returns a typed outcome immediately; a :class:`Queued` request's
        later fate fires its ``decided`` event and shows up on the trace.

        ``site`` pins the request to one named federation member instead of
        the federated best-site selection: it is admitted there or rejected
        outright, never queued. Shard workers replay coordinator admission
        decisions through this path, so a pinned submit must stay exactly
        "the federated outcome with the site choice already made".
        """
        owner = self.tenants.get(tenant)
        if owner is None:
            raise KeyError(f"unknown tenant {tenant!r}; register_tenant first")
        envelope = demand_envelope(manifest)
        request = ProvisioningRequest(
            request_id=f"req-{next(self._seq)}",
            tenant=tenant, manifest=manifest, envelope=envelope,
            submitted_at=self.env.now,
            service_id=service_id or (f"{tenant}-{manifest.service_name}-"
                                      f"{len(self.requests) + 1}"),
            decided=self.env.event(), drivers=drivers,
        )
        self.requests[request.request_id] = request
        self._m_counters["submitted"].inc()
        # The request span is the causal root of everything this submission
        # ends up doing — admission, deployment, the VEEs, the release.
        request.span = self.trace.span(
            "control", "request", request=request.request_id,
            tenant=tenant, service=request.service_id)
        self.trace.emit_in(request.span, "control", "request.submitted",
                           request=request.request_id, tenant=tenant,
                           service=request.service_id,
                           service_name=manifest.service_name)

        # Hard screens: things that will never change by waiting.
        if not owner.quota.admits_alone(envelope):
            return self._reject(request, RejectionReason(
                RejectCode.QUOTA,
                "quota: worst case exceeds the tenant quota outright",
                tenant=tenant))
        if site is not None:
            # Pinned submission: admit on the named site now or reject.
            target = self._site_named(site)
            if not self._eligible(target, manifest):
                return self._reject(request, RejectionReason(
                    RejectCode.PLACEMENT,
                    f"placement: site {site!r} is not eligible",
                    site=site))
            if owner.quota.violation(owner.usage, envelope) is not None:
                return self._reject(request, RejectionReason(
                    RejectCode.QUOTA,
                    "quota: worst case exceeds the tenant quota",
                    tenant=tenant))
            if not target.admission.can_admit(manifest):
                return self._reject(request, RejectionReason(
                    RejectCode.CAPACITY,
                    f"capacity: site {site!r} cannot admit the worst case",
                    site=site))
            self._admit_to(request, target)
            return Admitted(request, target.name)
        if not self._fits_somewhere_empty(request):
            return self._reject(request, RejectionReason(
                RejectCode.CAPACITY,
                "capacity: worst case exceeds every eligible site's "
                "whole pool"))
        if (self.max_queue_depth is not None
                and self.scheduler.depth >= self.max_queue_depth):
            return self._reject(request, RejectionReason(
                RejectCode.BACKPRESSURE,
                f"backpressure: queue depth {self.scheduler.depth} at the "
                f"max_queue_depth={self.max_queue_depth} bound",
                depth=self.scheduler.depth, bound=self.max_queue_depth))

        position = self.scheduler.push(request)
        self._record_depth()
        self._pump()
        if request.state is not RequestState.QUEUED:
            # Drained straight through: admitted in the same instant.
            return Admitted(request, request.site)
        self._m_counters["queued"].inc()
        depth = self.scheduler.depth
        self.trace.emit_in(request.span, "control", "request.queued",
                           request=request.request_id, tenant=tenant,
                           position=position, depth=depth)
        return Queued(request, position=position, depth=depth)

    def release(self, request: ProvisioningRequest) -> Process:
        """Undeploy an ACTIVE request's service; capacity frees (and the
        queue re-drains) once termination completes."""
        if request.state is not RequestState.ACTIVE or request.service is None:
            raise ValueError(
                f"{request.request_id} is {request.state.value}, not active")
        site = self._site_named(request.site)
        return site.manager.undeploy(request.service)

    # ------------------------------------------------------------------
    # Federation reachability (network partitions)
    # ------------------------------------------------------------------
    @property
    def unreachable(self) -> frozenset:
        """Sites currently cut off by a partition."""
        return frozenset(self._unreachable)

    def partition(self, sites) -> None:
        """Mark federation members unreachable: they drop out of every
        eligibility screen (federated selection, pinned submissions,
        ``what_if`` probes) until :meth:`heal_partition`. Already-deployed
        services on a partitioned site keep running — the site's own
        control loops are local; only the control plane's reach is cut."""
        names = [s if isinstance(s, str) else s.name for s in sites]
        for name in names:
            self._site_named(name)      # validate before mutating
        self._unreachable.update(names)
        self.trace.emit("control", "federation.partition",
                        sites=sorted(names),
                        unreachable=sorted(self._unreachable))

    def heal_partition(self, sites=None) -> None:
        """Restore reachability (all partitioned sites by default) and
        re-drain the queue against the recovered capacity."""
        if sites is None:
            healed = set(self._unreachable)
        else:
            healed = {s if isinstance(s, str) else s.name for s in sites}
        self._unreachable -= healed
        self.trace.emit("control", "federation.heal",
                        sites=sorted(healed),
                        unreachable=sorted(self._unreachable))
        self._pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self.scheduler.depth

    def active_requests(self, tenant: Optional[str] = None
                        ) -> list[ProvisioningRequest]:
        return [r for r in self.requests.values()
                if r.state is RequestState.ACTIVE
                and (tenant is None or r.tenant == tenant)]

    def stats(self) -> dict:
        """Request-flow counters plus the live queue/commitment picture."""
        out = {name: int(c.value) for name, c in self._m_counters.items()}
        out["queue_depth"] = self.scheduler.depth
        out["sites"] = {
            s.name: {"pool_hosts": s.admission.pool_hosts,
                     "headroom": s.headroom,
                     "admitted_services": len(s.admission.admitted)}
            for s in self.sites
        }
        out["tenants"] = {
            name: {"services": t.usage.services,
                   "instances": t.usage.instances,
                   "queued": self.scheduler.depth_of(name)}
            for name, t in self.tenants.items()
        }
        return out

    def what_if(self, manifest: ServiceManifest, *,
                tenant: Optional[str] = None, exact: bool = True):
        """Would this manifest fit, where, at what committed cost?

        A pure federation-wide probe
        (:func:`repro.solver.whatif.what_if`): replays ``submit()``'s
        decision pipeline — eligibility, optional tenant
        quota screens, per-site guaranteed-capacity packing, the ranked
        site choice — without reserving, queueing or mutating anything.
        ``exact=True`` asks the constraint solver for a second opinion on
        sites the FFD packer refuses.
        """
        from ..solver.whatif import what_if
        return what_if(self, manifest, tenant=tenant, exact=exact)

    # ------------------------------------------------------------------
    # Admission machinery
    # ------------------------------------------------------------------
    def _site_named(self, name: str) -> ControlledSite:
        for s in self.sites:
            if s.name == name:
                return s
        raise KeyError(f"unknown site {name!r}")

    def _eligible(self, site: ControlledSite,
                  manifest: ServiceManifest) -> bool:
        """Manifest-level MDL5 administrative screening: a partitioned-off
        site, a site any placement avoids, or an untrusted site when trust
        is required, is out for the whole service."""
        if site.name in self._unreachable:
            return False
        for placement in manifest.placement.site_placements:
            if site.name in placement.avoid_sites:
                return False
            if placement.require_trusted and not site.site.trusted:
                return False
        return True

    def _preference(self, site: ControlledSite,
                    manifest: ServiceManifest) -> int:
        """0 if any placement favours the site (sorts first), else 1."""
        for placement in manifest.placement.site_placements:
            if site.name in placement.favour_sites:
                return 0
        return 1

    def _fits_somewhere_empty(self, request: ProvisioningRequest) -> bool:
        """Could the request fit *some* eligible site with nothing else
        admitted? False means waiting can never help."""
        cache = self._solo_ceilings
        for site in self.sites:
            if not self._eligible(site, request.manifest):
                continue
            key = (id(request.manifest), site.admission.host)
            try:
                hosts = cache[key]
            except KeyError:
                try:
                    hosts = plan_capacity([request.manifest],
                                          site.admission.host
                                          ).hosts_for_ceiling
                except CapacityError:
                    # An instance exceeds this site's host type.
                    hosts = None
                cache[key] = hosts
            if hosts is not None and hosts <= site.admission.pool_hosts:
                return True
        return False

    def ranked_sites(self, manifest: ServiceManifest
                     ) -> list[ControlledSite]:
        """The sites eligible for ``manifest`` in the order admission tries
        them: favoured first, then greatest headroom, then federation
        order."""
        ranked = sorted(
            (self._preference(site, manifest), -site.headroom, index, site)
            for index, site in enumerate(self.sites)
            if self._eligible(site, manifest)
        )
        return [site for _pref, _headroom, _index, site in ranked]

    def _best_site(self, request: ProvisioningRequest
                   ) -> Optional[ControlledSite]:
        """Federated selection: the first of :meth:`ranked_sites` that can
        admit the worst case right now.

        Sites are ranked *before* the (expensive, full-repack) admission
        probe and scanned in rank order: because the ranking key does not
        depend on the probe, the first admitting site is exactly the
        ``min()`` over all admitting candidates, but saturated low-rank
        sites are never packed at all."""
        manifest = request.manifest
        for site in self.ranked_sites(manifest):
            if site.admission.can_admit(manifest):
                return site
        return None

    def _try_admit(self, request: ProvisioningRequest) -> bool:
        """The scheduler's admission callback: quota, then site capacity;
        on success reserve both and start driving the deployment."""
        tenant = self.tenants[request.tenant]
        if tenant.quota.violation(tenant.usage, request.envelope) is not None:
            return False
        site = self._best_site(request)
        if site is None:
            return False
        self._admit_to(request, site)
        return True

    def _admit_to(self, request: ProvisioningRequest,
                  site: ControlledSite) -> None:
        """Reserve capacity on ``site`` and start driving the deployment
        (shared by the fair-drain path and pinned submissions)."""
        tenant = self.tenants[request.tenant]
        site.admission.admit(request.manifest)
        tenant.usage.add(request.envelope)
        request.state = RequestState.DEPLOYING
        request.site = site.name
        request.admitted_at = self.env.now
        self._m_counters["admitted"].inc()
        waited = request.wait_time
        self._m_queue_wait.observe(waited)
        self.trace.emit_in(request.span, "control", "request.admitted",
                           request=request.request_id, tenant=request.tenant,
                           site=site.name, waited=waited,
                           queue_depth=self.scheduler.depth)
        request._decide()
        self.env.process(self._drive(request, site),
                         name=f"drive:{request.request_id}")

    def _pump(self) -> int:
        """Drain the queue as far as current capacity/quotas allow."""
        admitted = self.scheduler.drain(self._try_admit)
        if admitted:
            self._record_depth()
        return admitted

    def _record_depth(self) -> None:
        self.series.record("queue.depth", self.scheduler.depth)

    def _reject(self, request: ProvisioningRequest, reason: str) -> Rejected:
        request.state = RequestState.REJECTED
        request.reason = reason
        self._m_counters["rejected"].inc()
        code = reason.code.value if isinstance(reason, RejectionReason) \
            else None
        self.trace.emit_in(request.span, "control", "request.rejected",
                           request=request.request_id, tenant=request.tenant,
                           reason=str(reason), code=code)
        if request.span is not None and not request.span.closed:
            self.trace.close_span(request.span, "rejected",
                                  reason=str(reason), code=code)
        request._decide()
        return Rejected(request, reason=reason)

    # ------------------------------------------------------------------
    # Deployment drive (admitted → active, with retry-with-backoff)
    # ------------------------------------------------------------------
    def _drive(self, request: ProvisioningRequest, site: ControlledSite):
        """Process: deploy, retrying transient infrastructure failures with
        exponential backoff; exhausting the policy returns the reservation
        and terminally rejects."""
        tenant = self.tenants[request.tenant]
        last_explanation = None
        while True:
            request.attempts += 1
            pins, request.pins = request.pins, None
            failure: Optional[Exception] = None
            service: Optional[ManagedService] = None
            try:
                # deploy() is synchronous (it spawns the deployment
                # process); activating the request span here parents the
                # service's own deploy span under it, carrying the causal
                # chain across the process boundary.
                with self.trace.activate(request.span):
                    service = site.manager.deploy(
                        request.manifest, service_id=request.service_id,
                        tenant=request.tenant, drivers=request.drivers,
                        placement_plan=pins)
                request.service = service
                yield service.deployment
            except TRANSIENT_ERRORS as exc:
                failure = exc
                if service is not None:
                    # Tear down any partially-deployed instances before the
                    # retry; pop the tracking entry first so the undeploy
                    # hook does not mistake this for a capacity release.
                    self._by_service.pop(request.service_id, None)
                    request.service = None
                    yield site.manager.undeploy(service)
            if failure is None:
                request.state = RequestState.ACTIVE
                self._by_service[request.service_id] = request
                self.trace.emit_in(request.span, "control",
                                   "request.active",
                                   request=request.request_id,
                                   tenant=request.tenant, site=site.name,
                                   service=request.service_id,
                                   attempts=request.attempts)
                return
            if (pins is None and isinstance(failure, CapacityError)
                    and request.attempts < self.retry.max_attempts):
                # Greedy one-at-a-time placement ran out of room; the
                # teardown above has already returned any partial reserve,
                # so re-plan the whole instance set jointly before burning
                # a backoff interval.
                rescue_pins, explanation = self._solver_rescue(request, site)
                if explanation is not None:
                    last_explanation = explanation
                if rescue_pins:
                    request.pins = rescue_pins
                    self._m_solver_rescued.inc()
                    self.trace.emit_in(request.span, "control",
                                       "request.rescue",
                                       request=request.request_id,
                                       tenant=request.tenant, site=site.name,
                                       instances=len(rescue_pins))
                    continue    # retry immediately with the solver's plan
            if request.attempts >= self.retry.max_attempts:
                site.admission.release(request.manifest)
                tenant.usage.remove(request.envelope)
                detail = {"error": str(failure),
                          "attempts": request.attempts}
                if last_explanation is not None:
                    detail["solver"] = last_explanation.render()
                self._reject(request, RejectionReason(
                    RejectCode.DEPLOY_FAILED,
                    f"deploy failed after {request.attempts} attempt(s): "
                    f"{failure}", **detail))
                self._pump()    # the reservation just freed — re-drain
                return
            delay = self.retry.backoff(request.attempts)
            self._m_counters["retried"].inc()
            self.trace.emit("control", "request.retry",
                            request=request.request_id,
                            tenant=request.tenant, attempt=request.attempts,
                            delay_s=delay, error=str(failure))
            yield self.env.timeout(delay)

    def _solver_rescue(self, request: ProvisioningRequest,
                       site: ControlledSite):
        """Joint re-plan after a greedy :class:`CapacityError`.

        Encodes the manifest's full initial instance set against the site's
        live hosts (with the placer's installed constraints) and solves
        within the default :class:`~repro.solver.model.SearchBudget`. SAT
        returns per-instance pins keyed ``(system_id, instance_index)`` for the
        retry deploy; UNSAT returns the solver's explanation for the
        eventual terminal reason. Any encoding surprise (an unsupported
        constraint type, say) falls back to the plain greedy retry path.
        """
        # The solver is imported by its two callers, this and what_if, so
        # a run whose greedy placement never fails never loads it.
        from ..solver.encode import encode_service
        from ..solver.model import Solution
        from ..solver.search import solve
        try:
            veem = site.site.veem
            model = encode_service(
                request.manifest, veem.hosts,
                service_id=request.service_id,
                constraints=veem.placer.constraints)
            result = solve(model)
        except Exception:
            return None, None
        if not isinstance(result, Solution):
            return None, result.explanation
        names = {h.index: h.name for h in model.hosts}
        counts: dict[str, int] = {}
        pins: dict[tuple, str] = {}
        for item, host_index in zip(model.items, result.assignment):
            instance = counts.get(item.component, 0)
            counts[item.component] = instance + 1
            pins[(item.component, instance)] = names[host_index]
        return pins, None

    # ------------------------------------------------------------------
    # Capacity release (wired into ServiceManager.on_undeploy)
    # ------------------------------------------------------------------
    def _on_undeploy(self, site: ControlledSite, service: ManagedService,
                     termination: Process) -> None:
        """Runs for *every* undeploy on a managed site — control-plane
        initiated or direct — so capacity accounting cannot be bypassed."""
        request = self._by_service.pop(service.service_id, None)
        if request is None:
            return      # not a control-plane service (or a retry teardown)
        self.env.process(self._finish_release(request, site, termination),
                         name=f"release:{request.request_id}")

    def _finish_release(self, request: ProvisioningRequest,
                        site: ControlledSite, termination: Process):
        yield termination
        site.admission.release(request.manifest)
        self.tenants[request.tenant].usage.remove(request.envelope)
        request.state = RequestState.RELEASED
        request.released_at = self.env.now
        request.service = None
        self._m_counters["released"].inc()
        self.trace.emit_in(request.span, "control", "request.released",
                           request=request.request_id, tenant=request.tenant,
                           site=site.name,
                           held_s=self.env.now
                           - (request.admitted_at or 0.0))
        if not request.span.closed:
            self.trace.close_span(request.span, "released")
        self._pump()    # capacity freed: drain the queue
