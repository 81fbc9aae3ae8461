"""Defragmenting migration plans.

Elastic churn fragments a fleet: scale-downs free slots scattered across
many hosts, and later deployments fail even though the *total* free
capacity is ample. :func:`plan_defrag` computes an ordered batch of
``vm.migrate`` steps that drains the emptiest hosts into the fullest —
the HTN-style "deploy/migrate actions compose into an executable plan"
idea — and :func:`execute_plan` runs it through the VEEM.

Safety argument (DESIGN §15): the plan is built against a simulated copy
of host state and committed **all-or-nothing per source host**, applying
each step to the simulation in plan order. Because the simulation applies
steps sequentially with the same release-then-reserve bookkeeping the
VEEM uses at migration start, a plan that was buildable never
oversubscribes any intermediate state. The executor re-validates every
step against live state (and aborts loudly) in case the world moved on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cloud.capacity import HostType, _ffd_key, _ffd_rows, _pack_rows
from ..cloud.capacity import InstanceDemand
from ..cloud.vm import VMState
from .encode import UnsupportedConstraintError, compile_constraints
from .model import ModelConstraints

__all__ = ["MigrationStep", "MigrationPlan", "fragmentation_score",
           "plan_defrag", "execute_plan"]

_EPS = 1e-9


@dataclass(frozen=True)
class MigrationStep:
    """One ``vm.migrate`` in the batch."""

    vm_id: str
    from_host: str
    to_host: str
    cpu: float
    memory_mb: float


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered, safety-checked migration batch with its payoff."""

    steps: tuple
    score_before: float
    score_after: float
    hosts_before: int       # hosts in use when the plan was built
    hosts_after: int        # hosts in use once every step lands

    def __bool__(self) -> bool:
        return bool(self.steps)


def fragmentation_score(hosts: Sequence) -> float:
    """How far the fleet is from its ideal packing, in [0, 1).

    ``(hosts_in_use - ideal_FFD_hosts) / hosts_in_use`` — 0.0 means the
    resident VMs could not occupy fewer hosts (by the FFD estimate, using
    the first live host's shape); higher means more reclaimable hosts.
    """
    live = [h for h in hosts if not h.failed]
    used = [h for h in live if h.vms]
    if not used:
        return 0.0
    shape = HostType(live[0].cpu_cores, live[0].memory_mb)
    rows = _ffd_rows(InstanceDemand(vm.descriptor.component_id or "vm",
                                    vm.descriptor.cpu, vm.descriptor.memory_mb)
                     for h in used for vm in h.vms)
    ideal = _pack_rows(rows, shape, track_counts=False)
    return max(0.0, (len(used) - ideal) / len(used))


class _SimHost:
    """Planner-side host state: live capacities plus residency, advanced
    step by step as the plan grows."""

    __slots__ = ("index", "name", "cpu_free", "mem_free", "attributes",
                 "resident", "movable", "pinned")

    def __init__(self, index, host):
        self.index = index
        self.name = host.name
        self.cpu_free = host.cpu_free
        self.mem_free = host.memory_free
        self.attributes = host.attributes
        self.resident: dict = {}
        self.movable = []       # RUNNING VMs, free to migrate
        self.pinned = 0         # VMs in other states: the host can't empty
        for vm in host.vms:
            d = vm.descriptor
            key = (d.service_id, d.component_id)
            self.resident[key] = self.resident.get(key, 0) + 1
            if vm.state is VMState.RUNNING:
                self.movable.append(vm)
            else:
                self.pinned += 1

    @property
    def used_key(self) -> tuple:
        """Ascending-utilisation sort key (memory used first, like FFD)."""
        return (sum(vm.descriptor.memory_mb for vm in self.movable),
                sum(vm.descriptor.cpu for vm in self.movable),
                self.index)


def _admits(cons: ModelConstraints, sim_target: _SimHost, vm,
            sim_hosts) -> bool:
    """Would moving ``vm`` onto ``sim_target`` keep the constraint set
    satisfied? Stricter than the live placer where migration could create
    states placement would never have (anti-affinity is checked in both
    directions) — a defrag must only ever *improve* the fleet."""
    d = vm.descriptor
    comp, svc = d.component_id, d.service_id
    for c_comp, attr, value in cons.attribute_requirements:
        if c_comp == comp and sim_target.attributes.get(attr) != value:
            return False
    if svc is None:
        return True
    for c_comp, cap in cons.caps:
        if (c_comp == comp
                and sim_target.resident.get((svc, comp), 0) >= cap):
            return False
    for a, avoid in cons.anti_affinities:
        if a == comp and sim_target.resident.get((svc, avoid), 0) > 0:
            return False
        if avoid == comp and sim_target.resident.get((svc, a), 0) > 0:
            return False
    for a, with_comp in cons.affinities:
        if a == comp:
            anchored = any(s.resident.get((svc, with_comp), 0) > 0
                           for s in sim_hosts)
            if anchored and sim_target.resident.get((svc, with_comp),
                                                    0) <= 0:
                return False
        if with_comp == comp:
            # Moving an anchor away from its dependents would break them;
            # only allowed when another anchor instance stays behind.
            source = next(s for s in sim_hosts if s.name == vm.host.name)
            if (source.resident.get((svc, a), 0) > 0
                    and source.resident.get((svc, comp), 0) <= 1):
                return False
    return True


def plan_defrag(veem) -> MigrationPlan:
    """Build a consolidation plan for one site's fleet.

    Drain candidates are visited emptiest-first; each is drained
    **all-or-nothing** (a half-drained host frees nothing), every VM going
    to the tightest-fitting fuller host that passes the placer's
    constraint set. Hosts that received VMs (or hold non-RUNNING VEEs)
    are never drained. Deterministic: ties break on host index and vm id.
    """
    score_before = fragmentation_score(veem.hosts)
    try:
        cons = compile_constraints(veem.placer.constraints)
    except UnsupportedConstraintError:
        # An unknown constraint type: no move is provably safe.
        used = sum(1 for h in veem.hosts if not h.failed and h.vms)
        return MigrationPlan((), score_before, score_before, used, used)
    sims = [_SimHost(i, h) for i, h in enumerate(veem.hosts)
            if not h.failed]
    hosts_before = sum(1 for s in sims if s.pinned or s.movable)
    steps: list[MigrationStep] = []
    closed: set[str] = set()        # drained sources: never targets again
    received: set[str] = set()      # got VMs: never sources
    sources = sorted((s for s in sims if s.movable and s.pinned == 0),
                     key=lambda s: s.used_key)
    for source in sources:
        if source.name in received or not source.movable:
            continue
        tentative: list[tuple] = []     # (vm, target) applied to the sim
        ok = True
        for vm in sorted(source.movable,
                         key=lambda v: (_ffd_key(InstanceDemand(
                             "", v.descriptor.cpu,
                             v.descriptor.memory_mb)), v.vm_id)):
            d = vm.descriptor
            candidates = [
                t for t in sims
                if t is not source and t.name not in closed
                and (t.movable or t.pinned)   # already in use: moving into
                #                               an empty host frees nothing
                and d.cpu <= t.cpu_free + _EPS
                and d.memory_mb <= t.mem_free + _EPS
                and _admits(cons, t, vm, sims)
            ]
            if not candidates:
                ok = False
                break
            target = min(candidates,
                         key=lambda t: (t.mem_free, t.cpu_free, t.index))
            _sim_move(source, target, vm)
            tentative.append((vm, target))
        if ok and tentative:
            for vm, target in tentative:
                steps.append(MigrationStep(
                    vm_id=vm.vm_id, from_host=source.name,
                    to_host=target.name, cpu=vm.descriptor.cpu,
                    memory_mb=vm.descriptor.memory_mb))
                received.add(target.name)
            source.movable = []
            closed.add(source.name)
        else:
            for vm, target in reversed(tentative):
                _sim_move(target, source, vm)
    hosts_after = sum(1 for s in sims if s.pinned or s.movable)
    score_after = _sim_score(sims, veem.hosts)
    return MigrationPlan(tuple(steps), score_before, score_after,
                         hosts_before, hosts_after)


def _sim_move(source: _SimHost, target: _SimHost, vm) -> None:
    d = vm.descriptor
    key = (d.service_id, d.component_id)
    source.cpu_free += d.cpu
    source.mem_free += d.memory_mb
    source.resident[key] -= 1
    if vm in source.movable:
        source.movable.remove(vm)
    target.cpu_free -= d.cpu
    target.mem_free -= d.memory_mb
    target.resident[key] = target.resident.get(key, 0) + 1
    target.movable.append(vm)


def _sim_score(sims, hosts) -> float:
    used = [s for s in sims if s.pinned or s.movable]
    if not used:
        return 0.0
    live = [h for h in hosts if not h.failed]
    shape = HostType(live[0].cpu_cores, live[0].memory_mb)
    rows = _ffd_rows(InstanceDemand(vm.descriptor.component_id or "vm",
                                    vm.descriptor.cpu, vm.descriptor.memory_mb)
                     for s in sims for vm in s.movable)
    # Pinned (non-RUNNING) VMs are invisible to the movable scan above;
    # fall back to counting their hosts as irreducible.
    ideal = _pack_rows(rows, shape, track_counts=False)
    ideal += sum(1 for s in sims if s.pinned and not s.movable)
    return max(0.0, (len(used) - ideal) / len(used))


def execute_plan(veem, plan: MigrationPlan):
    """Run a plan through the VEEM; returns the executing process.

    Each step is re-validated against live state right before its
    ``vm.migrate`` — the fleet may have moved on since planning — and the
    batch aborts (with a ``defrag.aborted`` trace record) on the first
    invalidated step rather than improvising.
    """
    return veem.env.process(_execute(veem, plan), name=f"defrag:{veem.name}")


def _execute(veem, plan: MigrationPlan):
    trace = veem.trace
    trace.emit(veem.name, "defrag.start", steps=len(plan.steps),
               score_before=plan.score_before,
               score_after=plan.score_after)
    executed = 0
    for step in plan.steps:
        vm = veem.vms.get(step.vm_id)
        target = next((h for h in veem.hosts if h.name == step.to_host),
                      None)
        if (vm is None or vm.state is not VMState.RUNNING
                or vm.host is None or vm.host.name != step.from_host
                or target is None or target.failed
                or not target.fits(vm.descriptor.cpu,
                                   vm.descriptor.memory_mb)):
            trace.emit(veem.name, "defrag.aborted", step=executed,
                       vm=step.vm_id, to_host=step.to_host)
            break
        yield veem.migrate(vm, target)
        executed += 1
    trace.emit(veem.name, "defrag.done", executed=executed,
               planned=len(plan.steps))
    return executed
