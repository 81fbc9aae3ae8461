"""System invariants checked after every experiment cell (DESIGN.md §16).

Four families, each a pure read of live objects (no mutation, so a check
can run mid-simulation or at the end):

* **No oversubscription** — every host's reserved CPU/memory stays within
  its physical capacity, and the reservation columns agree with the sum of
  resident VM descriptors (accounting drift detection).
* **Requests settled** — after the run's settle window no request is stuck
  mid-pipeline (``DEPLOYING``); every request is QUEUED (admission backlog
  at end-of-run is a legitimate final state for a finite run), ACTIVE,
  REJECTED or RELEASED.
* **Accounting consistent** — per-tenant quota usage equals the sum of the
  tenant's live (DEPLOYING/ACTIVE) request envelopes, and each site's
  admission ledger carries exactly its live requests.
* **No orphan spans** — every open span is the by-design-open ``request``
  span of a live (QUEUED/DEPLOYING/ACTIVE) request; anything else leaked.

Violations are data, not exceptions: the experiment runner reports failing
cells and exits non-zero. The runner and report suites prove these checks
catch a corrupted system by crashing a host whose failure keeps its booked
capacity: the reservation drift fails the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..control.requests import RequestState

__all__ = [
    "Violation",
    "check_no_oversubscription",
    "check_requests_settled",
    "check_accounting",
    "check_no_orphan_spans",
    "check_all",
]

_EPS = 1e-6

#: Request states a finished run may legitimately contain.
_SETTLED = (RequestState.QUEUED, RequestState.ACTIVE,
            RequestState.REJECTED, RequestState.RELEASED)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which, where, and what the numbers were."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.subject}: {self.detail}"


def check_no_oversubscription(veems) -> list[Violation]:
    out = []
    for veem in veems:
        for host in veem.hosts:
            if host._cpu_used > host.cpu_cores + _EPS:
                out.append(Violation(
                    "no-oversubscription", f"{veem.name}/{host.name}",
                    f"cpu {host._cpu_used:g} > capacity "
                    f"{host.cpu_cores:g}"))
            if host._mem_used > host.memory_mb + _EPS:
                out.append(Violation(
                    "no-oversubscription", f"{veem.name}/{host.name}",
                    f"memory {host._mem_used:g}MB > capacity "
                    f"{host.memory_mb:g}MB"))
            resident_cpu = sum(vm.descriptor.cpu for vm in host.vms)
            resident_mem = sum(vm.descriptor.memory_mb for vm in host.vms)
            if (abs(resident_cpu - host._cpu_used) > _EPS
                    or abs(resident_mem - host._mem_used) > _EPS):
                out.append(Violation(
                    "no-oversubscription", f"{veem.name}/{host.name}",
                    f"reservation drift: booked cpu={host._cpu_used:g} "
                    f"mem={host._mem_used:g} but residents sum to "
                    f"cpu={resident_cpu:g} mem={resident_mem:g}"))
    return out


def check_requests_settled(control) -> list[Violation]:
    out = []
    for request in control.requests.values():
        if request.state not in _SETTLED:
            out.append(Violation(
                "requests-settled", request.request_id,
                f"state {request.state.value!r} after the settle window "
                f"(submitted at t={request.submitted_at:g})"))
    return out


def check_accounting(control) -> list[Violation]:
    out = []
    live_states = (RequestState.DEPLOYING, RequestState.ACTIVE)
    live = [r for r in control.requests.values() if r.state in live_states]
    # Tenant ledgers against live envelopes.
    for name, tenant in control.tenants.items():
        services = instances = 0
        cpu = memory_mb = 0.0
        for request in live:
            if request.tenant != name:
                continue
            ceiling_cpu, ceiling_mem = request.envelope.totals("ceiling")
            services += 1
            instances += len(request.envelope.ceiling)
            cpu += ceiling_cpu
            memory_mb += ceiling_mem
        usage = tenant.usage
        if (usage.services != services or usage.instances != instances
                or abs(usage.cpu - cpu) > _EPS
                or abs(usage.memory_mb - memory_mb) > _EPS):
            out.append(Violation(
                "accounting-consistent", f"tenant {name}",
                f"ledger services={usage.services} instances="
                f"{usage.instances} cpu={usage.cpu:g} mem="
                f"{usage.memory_mb:g} but live requests sum to "
                f"services={services} instances={instances} cpu={cpu:g} "
                f"mem={memory_mb:g}"))
    # Site admission ledgers against live requests.
    by_site: dict[str, int] = {}
    for request in live:
        by_site[request.site] = by_site.get(request.site, 0) + 1
    for site in control.sites:
        admitted = len(site.admission.admitted)
        expected = by_site.get(site.name, 0)
        if admitted != expected:
            out.append(Violation(
                "accounting-consistent", f"site {site.name}",
                f"admission ledger holds {admitted} service(s) but "
                f"{expected} live request(s) target the site"))
    return out


def check_no_orphan_spans(trace, control=None) -> list[Violation]:
    out = []
    requests = control.requests if control is not None else {}
    live = (RequestState.QUEUED, RequestState.DEPLOYING, RequestState.ACTIVE)
    for span in trace.open_spans():
        if span.kind == "request":
            request = requests.get(span.details.get("request", ""))
            if request is not None and request.state in live:
                continue    # open by design while the request lives
            out.append(Violation(
                "no-orphan-spans", f"span #{span.span_id}",
                f"request span open but the request is "
                f"{request.state.value if request else 'unknown'}"))
        else:
            out.append(Violation(
                "no-orphan-spans", f"span #{span.span_id}",
                f"{span.source}:{span.kind} opened at t={span.start:g} "
                f"never closed"))
    return out


def check_all(control, veems, trace=None, *, metrics=None) -> list[Violation]:
    """Every invariant family, in severity order.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) tallies
    violations under ``scenarios.invariants.violations`` — incremented
    only when there are any, so a clean run's registry is byte-identical
    to one checked without a registry."""
    trace = trace if trace is not None else control.trace
    out = []
    out.extend(check_no_oversubscription(veems))
    out.extend(check_requests_settled(control))
    out.extend(check_accounting(control))
    out.extend(check_no_orphan_spans(trace, control))
    if metrics is not None and out:
        metrics.counter("scenarios.invariants.violations").inc(len(out))
    return out
