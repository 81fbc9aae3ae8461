"""Fault injection as first-class DES events (DESIGN.md §16).

Chaos events are frozen, picklable dataclasses scheduled against the real
infrastructure objects: host crashes and correlated whole-site outages
(:meth:`~repro.cloud.veem.VEEM.inject_host_failure` under the hood),
spot-VM preemption waves (:meth:`~repro.cloud.veem.VEEM.preempt`),
federation network partitions (:meth:`~repro.control.ControlPlane.
partition`), and a deliberately-broken :class:`Oversubscribe` hook used to
prove the invariant checker detects violations.

:func:`install_chaos` spawns one process per event; every action and every
recovery emits a ``chaos.*`` trace record through the run's
:class:`~repro.sim.TraceLog`, and recoveries re-run each affected service's
:meth:`~repro.core.service_manager.lifecycle.ServiceLifecycleManager.
ensure_floor` so heals that failed while capacity was down get their
second chance.

Sharding: every event names the site(s) it touches, so the sharded scale
harness ships each worker only the events intersecting its shard
(:func:`restrict_event`). Site-local events are oracle-parity safe — their
effect is a pure function of one site's state — but a
:class:`NetworkPartition` acts on the (coordinator-only) control plane and
is rejected under ``procs > 1``. Pick ``at_s`` *off* the monitor grid
(e.g. ``n * period + period / 4``) so an injection never races a
same-instant scale event whose ordering could differ between execution
modes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "HostCrash",
    "SpotPreemption",
    "SiteOutage",
    "NetworkPartition",
    "Oversubscribe",
    "ChaosEvent",
    "sites_of",
    "restrict_event",
    "install_chaos",
]


@dataclass(frozen=True)
class HostCrash:
    """Crash one host at ``at_s``; optionally recover it later."""

    at_s: float
    site: str
    host_index: int = 0
    recover_after_s: float = 0.0    # 0 = never recovers


@dataclass(frozen=True)
class SpotPreemption:
    """Spot-market reclamation: fail ``count`` active VMs at the site."""

    at_s: float
    site: str
    count: int = 1


@dataclass(frozen=True)
class SiteOutage:
    """Correlated outage: every host at each named site fails at once."""

    at_s: float
    sites: tuple
    recover_after_s: float = 0.0


@dataclass(frozen=True)
class NetworkPartition:
    """The named sites become unreachable from the control plane: queued
    and new requests stop landing there until the partition heals."""

    at_s: float
    sites: tuple
    heal_after_s: float = 0.0


@dataclass(frozen=True)
class Oversubscribe:
    """TEST-ONLY invariant violation: corrupt one host's capacity
    accounting so it reads as oversubscribed. Exists purely to prove the
    experiment runner detects and reports a broken invariant — never a
    model of real behaviour."""

    at_s: float
    site: str
    host_index: int = 0
    extra_cpu: float = 1.0


ChaosEvent = Union[HostCrash, SpotPreemption, SiteOutage,
                   NetworkPartition, Oversubscribe]


def sites_of(event: ChaosEvent) -> tuple:
    """The site names an event touches (partition events included)."""
    if isinstance(event, (SiteOutage, NetworkPartition)):
        return tuple(event.sites)
    return (event.site,)


def restrict_event(event: ChaosEvent, site_names) -> Optional[ChaosEvent]:
    """The event as seen by a shard owning ``site_names``: unchanged if
    fully local, narrowed to the intersection for multi-site events, or
    ``None`` if the shard is untouched."""
    owned = set(site_names)
    if isinstance(event, (SiteOutage, NetworkPartition)):
        subset = tuple(name for name in event.sites if name in owned)
        if not subset:
            return None
        if len(subset) == len(event.sites):
            return event
        return dataclasses.replace(event, sites=subset)
    return event if event.site in owned else None


def event_to_dict(event: ChaosEvent) -> dict:
    """Stable JSON shape for run records: ``{"type": ..., fields...}``."""
    out = {"type": type(event).__name__}
    out.update(dataclasses.asdict(event))
    if "sites" in out:
        out["sites"] = list(out["sites"])
    return out


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def install_chaos(env, events, *, veems_by_site: dict,
                  control=None, managers_by_site: Optional[dict] = None,
                  trace=None) -> list:
    """Schedule ``events`` against the given infrastructure.

    ``veems_by_site`` maps site name -> :class:`~repro.cloud.veem.VEEM`;
    ``managers_by_site`` (optional) maps site name -> ``ServiceManager`` so
    recoveries can re-floor the affected services; ``control`` is required
    for :class:`NetworkPartition`. Every fired and recovered phase is a
    ``chaos``-source trace record.

    Returns the spawned processes (one per event), in event order.
    """
    if trace is None:
        trace = (control.trace if control is not None
                 else next(iter(veems_by_site.values())).trace)
    managers_by_site = managers_by_site or {}

    def refloor(site_name):
        """Recovery hook: give every service on the site a second chance
        to heal components whose mid-outage heals failed for capacity."""
        manager = managers_by_site.get(site_name)
        if manager is None:
            return 0
        healed = 0
        for service in list(manager.services.values()):
            healed += service.lifecycle.ensure_floor()
        return healed

    def fail_site(site_name, kind):
        veem = veems_by_site[site_name]
        downed, casualties = [], 0
        for host in veem.hosts:
            if host.failed:
                continue
            casualties += len(veem.inject_host_failure(host))
            downed.append(host)
        trace.emit("chaos", kind, site=site_name,
                   hosts=len(downed), casualties=casualties)
        return downed

    def recover_site(site_name, downed, kind):
        veem = veems_by_site[site_name]
        for host in downed:
            veem.recover_host(host)
        healed = refloor(site_name)
        trace.emit("chaos", kind, site=site_name,
                   hosts=len(downed), healed=healed)

    def host_crash(event: HostCrash):
        yield env.timeout(event.at_s)
        veem = veems_by_site[event.site]
        host = veem.hosts[event.host_index]
        if host.failed:
            return
        casualties = veem.inject_host_failure(host)
        trace.emit("chaos", "chaos.host.crash", site=event.site,
                   host=host.name, casualties=len(casualties))
        if event.recover_after_s <= 0:
            return
        yield env.timeout(event.recover_after_s)
        veem.recover_host(host)
        healed = refloor(event.site)
        trace.emit("chaos", "chaos.host.recover", site=event.site,
                   host=host.name, healed=healed)

    def preemption(event: SpotPreemption):
        yield env.timeout(event.at_s)
        veem = veems_by_site[event.site]
        victims = veem.preempt(event.count)
        trace.emit("chaos", "chaos.preempt", site=event.site,
                   count=len(victims), vms=[vm.vm_id for vm in victims])

    def site_outage(event: SiteOutage):
        yield env.timeout(event.at_s)
        downed_by_site = {}
        for site_name in event.sites:
            downed_by_site[site_name] = fail_site(
                site_name, "chaos.site.outage")
        if event.recover_after_s <= 0:
            return
        yield env.timeout(event.recover_after_s)
        for site_name, downed in downed_by_site.items():
            recover_site(site_name, downed, "chaos.site.recover")

    def partition(event: NetworkPartition):
        yield env.timeout(event.at_s)
        control.partition(event.sites)
        trace.emit("chaos", "chaos.partition", sites=sorted(event.sites))
        if event.heal_after_s <= 0:
            return
        yield env.timeout(event.heal_after_s)
        control.heal_partition(event.sites)
        trace.emit("chaos", "chaos.heal", sites=sorted(event.sites))

    def oversubscribe(event: Oversubscribe):
        yield env.timeout(event.at_s)
        veem = veems_by_site[event.site]
        host = veem.hosts[event.host_index]
        # Deliberate accounting corruption — see the class docstring.
        host._cpu_used = host.cpu_cores + event.extra_cpu
        trace.emit("chaos", "chaos.oversubscribe", site=event.site,
                   host=host.name, extra_cpu=event.extra_cpu)

    runners = {
        HostCrash: host_crash,
        SpotPreemption: preemption,
        SiteOutage: site_outage,
        NetworkPartition: partition,
        Oversubscribe: oversubscribe,
    }
    processes = []
    for index, event in enumerate(events):
        if isinstance(event, NetworkPartition) and control is None:
            raise ValueError("NetworkPartition needs a control plane")
        for name in sites_of(event):
            if name not in veems_by_site and not isinstance(
                    event, NetworkPartition):
                raise KeyError(f"chaos event names unknown site {name!r}")
        runner = runners[type(event)]
        processes.append(env.process(runner(event),
                                     name=f"chaos:{index}:"
                                          f"{type(event).__name__}"))
    return processes
