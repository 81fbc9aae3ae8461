"""Placement policies and placement constraints.

"While the VEEM allocates services according to a given placement policy, it
is the Service Manager that interfaces with the Service Provider and ensures
that requirements ... are correctly enforced" (§2). The paper's manifest adds
*placement and co-location constraints* "which identify sites that should be
favoured or avoided when selecting a location for a service" (§4.1 MDL5) and
host-level co-location (the SAP Central Instance and DBMS "need to be
co-located", §3).

This module separates:

* **policies** — how to rank feasible hosts (first-fit, best-fit, worst-fit,
  round-robin), and
* **constraints** — hard predicates a candidate host must satisfy
  (affinity/anti-affinity with other components of the same service,
  attribute requirements), applied before the policy ranks candidates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from .errors import CapacityError, PlacementError
from .veeh import Host
from .vm import DeploymentDescriptor

__all__ = [
    "PlacementConstraint",
    "Affinity",
    "AntiAffinity",
    "AttributeRequirement",
    "ComponentCap",
    "PlacementPolicy",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "RoundRobin",
    "Placer",
]


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

class PlacementConstraint(abc.ABC):
    """A hard predicate on (host, descriptor) pairs."""

    @abc.abstractmethod
    def admits(self, host: Host, descriptor: DeploymentDescriptor,
               universe: Sequence[Host] = ()) -> bool:
        """True if ``host`` is acceptable for ``descriptor``.

        ``universe`` is the full candidate host list — constraints that need
        global knowledge (e.g. "where is the anchor component placed?") scan
        it; purely local constraints ignore it.
        """

    def describe(self) -> str:
        return type(self).__name__


def _same_service(host_vm_descriptor: DeploymentDescriptor,
                  descriptor: DeploymentDescriptor) -> bool:
    return (host_vm_descriptor.service_id == descriptor.service_id
            and descriptor.service_id is not None)


@dataclass(frozen=True)
class Affinity(PlacementConstraint):
    """``component`` must share a host with ``with_component`` of the same
    service — the SAP CI/DBMS co-location constraint.

    If no instance of ``with_component`` is placed anywhere yet, any host is
    admissible (the constraint binds the *second* component deployed).
    """

    component: str
    with_component: str

    def admits(self, host: Host, descriptor: DeploymentDescriptor,
               universe: Sequence[Host] = ()) -> bool:
        if descriptor.component_id != self.component:
            return True
        anchored_anywhere = any(
            _same_service(vm.descriptor, descriptor)
            and vm.descriptor.component_id == self.with_component
            for h in (universe or [host])
            for vm in h.vms
        )
        if not anchored_anywhere:
            return True
        return any(
            _same_service(vm.descriptor, descriptor)
            and vm.descriptor.component_id == self.with_component
            for vm in host.vms
        )

    def describe(self) -> str:
        return f"Affinity({self.component} with {self.with_component})"


@dataclass(frozen=True)
class AntiAffinity(PlacementConstraint):
    """``component`` must NOT share a host with ``avoid_component`` of the
    same service (e.g. replicas of a DBMS kept apart for availability)."""

    component: str
    avoid_component: str

    def admits(self, host: Host, descriptor: DeploymentDescriptor,
               universe: Sequence[Host] = ()) -> bool:
        if descriptor.component_id != self.component:
            return True
        return not any(
            _same_service(vm.descriptor, descriptor)
            and vm.descriptor.component_id == self.avoid_component
            for vm in host.vms
        )

    def describe(self) -> str:
        return f"AntiAffinity({self.component} avoids {self.avoid_component})"


@dataclass(frozen=True)
class AttributeRequirement(PlacementConstraint):
    """Host attribute must equal a required value (zone, trust level...)."""

    component: str
    attribute: str
    value: object

    def admits(self, host: Host, descriptor: DeploymentDescriptor,
               universe: Sequence[Host] = ()) -> bool:
        if descriptor.component_id != self.component:
            return True
        return host.attributes.get(self.attribute) == self.value

    def describe(self) -> str:
        return f"AttributeRequirement({self.component}: {self.attribute}={self.value})"


@dataclass(frozen=True)
class ComponentCap(PlacementConstraint):
    """At most ``cap`` instances of ``component`` per host.

    The evaluation caps Condor execution VEEs at 4 per physical host
    ("up to 4 Condor Execution components may be deployed on a single
    physical host", §6.1.2).
    """

    component: str
    cap: int

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def admits(self, host: Host, descriptor: DeploymentDescriptor,
               universe: Sequence[Host] = ()) -> bool:
        if descriptor.component_id != self.component:
            return True
        existing = sum(
            1 for vm in host.vms
            if vm.descriptor.component_id == self.component
            and _same_service(vm.descriptor, descriptor)
        )
        return existing < self.cap

    def describe(self) -> str:
        return f"ComponentCap({self.component} ≤ {self.cap}/host)"


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class PlacementPolicy(abc.ABC):
    """Ranks feasible hosts; the first of the ranking is chosen."""

    @abc.abstractmethod
    def order(self, hosts: Sequence[Host],
              descriptor: DeploymentDescriptor) -> list[Host]:
        """Return candidate hosts in preference order."""


class FirstFit(PlacementPolicy):
    """Take hosts in their configured order — OpenNebula's default rank."""

    def order(self, hosts, descriptor):
        return list(hosts)


class BestFit(PlacementPolicy):
    """Pack tightly: prefer the host with the least free memory that fits.

    Consolidation-friendly — leaves large holes for big VMs and empties
    hosts faster on scale-down.
    """

    def order(self, hosts, descriptor):
        return sorted(hosts, key=lambda h: (h.memory_free, h.cpu_free))


class WorstFit(PlacementPolicy):
    """Spread load: prefer the emptiest host (load balancing)."""

    def order(self, hosts, descriptor):
        return sorted(hosts, key=lambda h: (-h.memory_free, -h.cpu_free))


class RoundRobin(PlacementPolicy):
    """Rotate through hosts regardless of load."""

    def __init__(self) -> None:
        self._next = 0

    def order(self, hosts, descriptor):
        if not hosts:
            return []
        start = self._next % len(hosts)
        self._next += 1
        return list(hosts[start:]) + list(hosts[:start])


# ---------------------------------------------------------------------------
# Placer: constraints + policy + capacity check
# ---------------------------------------------------------------------------

@dataclass
class Placer:
    """Combines hard constraints with a ranking policy.

    Selection procedure: filter hosts by capacity fit and by every
    constraint, then take the policy's top-ranked survivor.
    """

    policy: PlacementPolicy = field(default_factory=FirstFit)
    constraints: list[PlacementConstraint] = field(default_factory=list)
    #: plain tallies (the placer has no environment of its own); the owning
    #: VEEM exposes them as ``cloud.placement.*`` registry gauges
    selections: int = 0
    capacity_failures: int = 0
    constraint_failures: int = 0

    def add_constraint(self, constraint: PlacementConstraint) -> None:
        self.constraints.append(constraint)

    def select(self, hosts: Sequence[Host],
               descriptor: DeploymentDescriptor) -> Host:
        """Pick a host, distinguishing *why* selection fails.

        No host with enough free CPU/memory → :class:`CapacityError` (the
        pool is exhausted; a transient condition that clears when something
        undeploys). Hosts fit but every one is excluded by a constraint →
        plain :class:`PlacementError` (infeasible until the constraint set
        changes). CapacityError subclasses PlacementError, so callers that
        don't care about the distinction keep working.
        """
        cpu = descriptor.cpu
        mem = descriptor.memory_mb
        if descriptor.placement:
            pin = descriptor.placement.get("host")
            if pin is not None:
                return self._select_pinned(hosts, descriptor, pin)
        if not self.constraints and type(self.policy) is FirstFit:
            # Hot path for the default placer: first-fit with no constraints
            # needs only the first fitting host — skip materialising the
            # fitting/candidate lists and the identity re-ranking.
            for h in hosts:
                if h.fits(cpu, mem):
                    self.selections += 1
                    return h
            self.capacity_failures += 1
            raise CapacityError(
                f"no feasible host for {descriptor.name!r}: pool capacity "
                f"exhausted (cpu={cpu}, "
                f"mem={mem}MB, {len(hosts)} host(s))"
            )
        fitting = [h for h in hosts if h.fits(cpu, mem)]
        if not fitting:
            self.capacity_failures += 1
            raise CapacityError(
                f"no feasible host for {descriptor.name!r}: pool capacity "
                f"exhausted (cpu={descriptor.cpu}, "
                f"mem={descriptor.memory_mb}MB, {len(hosts)} host(s))"
            )
        candidates = [
            h for h in fitting
            if all(c.admits(h, descriptor, hosts) for c in self.constraints)
        ]
        if not candidates:
            self.constraint_failures += 1
            raise PlacementError(
                f"no feasible host for {descriptor.name!r} "
                f"(cpu={descriptor.cpu}, mem={descriptor.memory_mb}MB, "
                f"constraints=[{', '.join(c.describe() for c in self.constraints)}])"
            )
        ranked = self.policy.order(candidates, descriptor)
        self.selections += 1
        return ranked[0]

    def _select_pinned(self, hosts: Sequence[Host],
                       descriptor: DeploymentDescriptor, pin: str) -> Host:
        """Honour ``descriptor.placement["host"]`` — a solver-computed plan.

        The pinning caller owns constraint validation (the solver checked
        the whole joint assignment); only the capacity fit is re-checked
        here, because the world may have moved since the plan was built.
        """
        for h in hosts:
            if h.name == pin:
                if h.fits(descriptor.cpu, descriptor.memory_mb):
                    self.selections += 1
                    return h
                self.capacity_failures += 1
                raise CapacityError(
                    f"pinned host {pin!r} cannot fit {descriptor.name!r} "
                    f"(cpu={descriptor.cpu}, mem={descriptor.memory_mb}MB)"
                )
        raise PlacementError(
            f"pinned host {pin!r} for {descriptor.name!r} is not in the "
            f"pool ({len(hosts)} host(s))"
        )
