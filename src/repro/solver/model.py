"""The placement constraint model.

A :class:`PlacementModel` is the solver's entire world: the items to
place (one per VM instance, with cpu/memory demand), the candidate hosts
(free-capacity snapshots with current residency), and the compiled
constraint sets — co-location and anti-location groups, per-host
component caps, host-attribute requirements. :mod:`repro.solver.encode`
compiles manifests, live hosts and admission tables into this shape;
:mod:`repro.solver.search` solves it. The model never aliases live
infrastructure objects, so solving is side-effect free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .explain import Explanation

__all__ = ["Item", "HostView", "ModelConstraints", "PlacementModel",
           "SearchBudget", "Solution", "Unsolved"]


@dataclass(frozen=True)
class Item:
    """One VM instance to place."""

    index: int
    name: str                       # descriptor name (stable plan key)
    component: str
    service_id: Optional[str]
    cpu: float
    memory_mb: float


@dataclass
class HostView:
    """A snapshot of one host (or one empty admission bin): free capacity,
    attributes, and resident instance counts by ``(service_id, component)``.
    Mutated only by the search's place/unplace bookkeeping — never a live
    :class:`~repro.cloud.veeh.Host`."""

    index: int
    name: str
    cpu_free: float
    mem_free: float
    attributes: dict = field(default_factory=dict)
    resident: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        """Value-symmetry key: hosts with equal signatures are
        interchangeable for every remaining item, so search tries only the
        first of each equivalence class."""
        return (self.cpu_free, self.mem_free,
                tuple(sorted(self.attributes.items())),
                tuple(sorted((k, v) for k, v in self.resident.items()
                             if v > 0)))


@dataclass(frozen=True)
class ModelConstraints:
    """Compiled constraint sets (component-name scoped, residency checks
    restricted to the same ``service_id`` — the live
    :class:`~repro.cloud.placement.PlacementConstraint` semantics)."""

    #: ``component`` must share a host with some ``with_component`` instance
    affinities: tuple = ()          # (component, with_component)
    #: ``component`` must not share a host with ``avoid_component``
    anti_affinities: tuple = ()     # (component, avoid_component)
    #: at most N instances of ``component`` per host
    caps: tuple = ()                # (component, cap)
    #: host attribute must equal the value for ``component``
    attribute_requirements: tuple = ()  # (component, attribute, value)


@dataclass
class PlacementModel:
    """Items × hosts × constraints — everything one solve needs."""

    items: list
    hosts: list
    constraints: ModelConstraints = field(default_factory=ModelConstraints)

    def validate_assignment(self, assignment) -> list[str]:
        """Independent check of a finished assignment (host index per item):
        returns violation descriptions (empty = sound). Used by tests and
        the defrag safety replay — deliberately a from-scratch evaluation,
        not the search's incremental bookkeeping."""
        problems: list[str] = []
        free = {h.index: [h.cpu_free, h.mem_free] for h in self.hosts}
        resident = {h.index: dict(h.resident) for h in self.hosts}
        hosts_by_index = {h.index: h for h in self.hosts}
        for item, j in zip(self.items, assignment):
            host = hosts_by_index[j]
            free[j][0] -= item.cpu
            free[j][1] -= item.memory_mb
            key = (item.service_id, item.component)
            resident[j][key] = resident[j].get(key, 0) + 1
            for comp, attr, value in self.constraints.attribute_requirements:
                if comp == item.component \
                        and host.attributes.get(attr) != value:
                    problems.append(f"{item.name}: attribute {attr}!={value!r}"
                                    f" on {host.name}")
        eps = 1e-9
        for j, (cpu, mem) in free.items():
            if cpu < -eps or mem < -eps:
                problems.append(f"{hosts_by_index[j].name}: oversubscribed "
                                f"(cpu_free={cpu:.3f}, mem_free={mem:.1f})")
        for j, counts in resident.items():
            for comp, cap in self.constraints.caps:
                # Live ComponentCap counts same-service instances only.
                per_service: dict = {}
                for (svc, c), n in counts.items():
                    if c == comp and svc is not None:
                        per_service[svc] = per_service.get(svc, 0) + n
                for svc, placed in sorted(per_service.items()):
                    if placed > cap:
                        problems.append(
                            f"{hosts_by_index[j].name}: {placed} × {comp} "
                            f"(service {svc}) exceeds cap {cap}")
            for a, avoid in self.constraints.anti_affinities:
                services = {svc for (svc, c), n in counts.items()
                            if n > 0 and c == a and svc is not None}
                for svc in sorted(services):
                    if counts.get((svc, avoid), 0) > 0:
                        problems.append(
                            f"{hosts_by_index[j].name}: {a} co-resident "
                            f"with {avoid} (service {svc})")
        for a, with_comp in self.constraints.affinities:
            for item, j in zip(self.items, assignment):
                if item.component != a or item.service_id is None:
                    continue
                anchor = (item.service_id, with_comp)
                anywhere = any(counts.get(anchor, 0) > 0
                               for counts in resident.values())
                if anywhere and resident[j].get(anchor, 0) <= 0:
                    problems.append(f"{item.name}: not co-located with "
                                    f"{with_comp}")
        return problems


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on one solve. ``max_nodes`` counts assignment attempts and is
    the budget every *decision-affecting* caller uses — it is deterministic,
    so sharded replays reach identical verdicts. ``max_seconds`` (wall
    clock) is opt-in for interactive probes only; never set it on a path a
    determinism contract covers."""

    max_nodes: int = 4096
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class Solution:
    """SAT: ``assignment[i]`` is the host index for ``model.items[i]``."""

    assignment: tuple
    nodes: int


@dataclass(frozen=True)
class Unsolved:
    """UNSAT (or budget exhausted: ``exhausted=True`` means *no verdict*,
    not infeasibility) with the structured reason."""

    explanation: Explanation
    nodes: int
    exhausted: bool = False
