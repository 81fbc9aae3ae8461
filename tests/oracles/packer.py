"""The object packer: the oracle for struct-of-arrays FFD packing.

:func:`pack` is first-fit-decreasing the plainest way: sort the instance
demands by memory then CPU, descending, and put each into the first open
:class:`Bin` that fits it, with per-component tallies on every bin.
:func:`reference_plan` builds a
:class:`~repro.cloud.capacity.CapacityPlan` with it. The capacity and
admission suites assert that
:func:`~repro.cloud.capacity.plan_capacity` and the incremental
:class:`~repro.cloud.capacity.AdmissionController` (both over
``repro.cloud.capacity._pack_rows``) reach the same host counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.capacity import (
    CapacityPlan,
    HostType,
    InstanceDemand,
    demand_envelope,
)
from repro.cloud.errors import CapacityError

__all__ = ["Bin", "pack", "reference_plan"]


@dataclass
class Bin:
    cpu_free: float
    mem_free: float
    per_component: dict[str, int] = field(default_factory=dict)

    def fits(self, d: InstanceDemand) -> bool:
        if d.cpu > self.cpu_free + 1e-9 or d.memory_mb > self.mem_free + 1e-9:
            return False
        if d.per_host_cap is not None:
            if self.per_component.get(d.component, 0) >= d.per_host_cap:
                return False
        return True

    def place(self, d: InstanceDemand) -> None:
        self.cpu_free -= d.cpu
        self.mem_free -= d.memory_mb
        self.per_component[d.component] = \
            self.per_component.get(d.component, 0) + 1


def pack(instances: list[InstanceDemand], host: HostType) -> int:
    """First-fit-decreasing by memory; returns hosts used."""
    for d in instances:
        if d.cpu > host.cpu_cores or d.memory_mb > host.memory_mb:
            raise CapacityError(
                f"instance of {d.component!r} (cpu={d.cpu}, "
                f"mem={d.memory_mb}) exceeds the host type"
            )
    bins: list[Bin] = []
    for d in sorted(instances, key=lambda d: (-d.memory_mb, -d.cpu)):
        target = next((b for b in bins if b.fits(d)), None)
        if target is None:
            target = Bin(host.cpu_cores, host.memory_mb)
            bins.append(target)
        target.place(d)
    return len(bins)


def reference_plan(manifests: list, host: HostType) -> CapacityPlan:
    """Hosts for all services' floors and ceilings, packed by :func:`pack`."""
    envelopes = [demand_envelope(m) for m in manifests]
    floor = [d for e in envelopes for d in e.floor]
    ceiling = [d for e in envelopes for d in e.ceiling]
    return CapacityPlan(
        host=host,
        hosts_for_floor=pack(floor, host) if floor else 0,
        hosts_for_ceiling=pack(ceiling, host) if ceiling else 0,
        floor_cpu=sum(d.cpu for d in floor),
        floor_memory_mb=sum(d.memory_mb for d in floor),
        ceiling_cpu=sum(d.cpu for d in ceiling),
        ceiling_memory_mb=sum(d.memory_mb for d in ceiling),
    )
