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


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on one solve. ``max_nodes`` counts assignment attempts; it is
    deterministic, so sharded replays reach identical verdicts."""

    max_nodes: int = 4096

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


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
