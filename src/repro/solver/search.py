"""Budgeted backtracking search over a :class:`PlacementModel`.

The greedy :class:`~repro.cloud.placement.Placer` commits one instance at
a time and never revisits a choice; this solver assigns the whole item
set jointly. The search is classic CSP machinery, tuned for placement:

* **stage order** — affinity anchors (the ``with_component`` side) are
  assigned before their dependents, so the "co-locate with X" predicate
  is evaluated against X's *final* location. Cyclic affinity groups
  collapse into one stage and fall back to the greedy, placement-time
  evaluation order.
* **MRV variable order** — within the current stage, pick the item with
  the fewest surviving candidate hosts (ties: larger demand first, then
  lower index). Fail-first: the tightest item fails the subtree fastest.
* **tightest-fit value order** — try fitting hosts fullest-first (ties:
  host index), the packing analogue of least-constraining-last.
* **value symmetry breaking** — hosts with identical free capacity,
  attributes and residency are interchangeable for every remaining item;
  only the first of each equivalence class is tried.
* **forward checking** — after each tentative assignment, every
  unassigned item must still have at least one candidate (affinity
  excluded: placing a future anchor can only *add* candidates, so
  pruning on it would be unsound).
* **deterministic budget** — nodes are assignment attempts; identical
  models reach identical verdicts on every run and every shard.

Every dead end records which constraint pruned the last candidate; the
deepest failure becomes the :class:`~.explain.Explanation` on UNSAT.
"""

from __future__ import annotations

from typing import Optional, Union

from .explain import Explanation, PruneCode, from_tallies
from .model import (
    HostView,
    PlacementModel,
    SearchBudget,
    Solution,
    Unsolved,
)

__all__ = ["solve"]

_EPS = 1e-9


class _Exhausted(Exception):
    pass


def solve(model: PlacementModel,
          budget: Optional[SearchBudget] = None
          ) -> Union[Solution, Unsolved]:
    """Find a full assignment or explain why there is none.

    The model's host views are copied at entry; the caller's snapshot is
    never mutated.
    """
    budget = budget or SearchBudget()
    items = model.items
    if not items:
        return Solution(assignment=(), nodes=0)
    hosts = [HostView(h.index, h.name, h.cpu_free, h.mem_free,
                      dict(h.attributes), dict(h.resident))
             for h in model.hosts]
    cons = model.constraints
    aff_by_comp: dict[str, list[str]] = {}
    for comp, with_comp in cons.affinities:
        aff_by_comp.setdefault(comp, []).append(with_comp)
    anti_by_comp: dict[str, list[str]] = {}
    for comp, avoid in cons.anti_affinities:
        anti_by_comp.setdefault(comp, []).append(avoid)
    cap_by_comp: dict[str, int] = {}
    for comp, cap in cons.caps:
        cap_by_comp.setdefault(comp, cap)
    attr_by_comp: dict[str, list[tuple[str, object]]] = {}
    for comp, attr, value in cons.attribute_requirements:
        attr_by_comp.setdefault(comp, []).append((attr, value))

    stage = _stage_order(items, aff_by_comp)
    # (service_id, component) -> instances placed anywhere (snapshot + search)
    anchor_counts: dict[tuple, int] = {}
    for h in hosts:
        for key, n in h.resident.items():
            if n > 0:
                anchor_counts[key] = anchor_counts.get(key, 0) + n

    n_items = len(items)
    assignment: list[Optional[int]] = [None] * n_items
    nodes = 0
    # deepest dead end seen: (depth, item name, prune tallies)
    failure: Optional[tuple[int, str, dict]] = None

    def check(item, host, tallies, with_affinity) -> bool:
        if (item.cpu > host.cpu_free + _EPS
                or item.memory_mb > host.mem_free + _EPS):
            tallies[PruneCode.CAPACITY] = \
                tallies.get(PruneCode.CAPACITY, 0) + 1
            return False
        comp = item.component
        for attr, value in attr_by_comp.get(comp, ()):
            if host.attributes.get(attr) != value:
                tallies[PruneCode.ATTRIBUTE] = \
                    tallies.get(PruneCode.ATTRIBUTE, 0) + 1
                return False
        svc = item.service_id
        if svc is None:
            # Affinity/anti-affinity/caps all scope to a service; a
            # service-less item (raw descriptor) escapes them — exactly the
            # live ``_same_service`` semantics.
            return True
        cap = cap_by_comp.get(comp)
        if cap is not None and host.resident.get((svc, comp), 0) >= cap:
            tallies[PruneCode.COMPONENT_CAP] = \
                tallies.get(PruneCode.COMPONENT_CAP, 0) + 1
            return False
        for avoid in anti_by_comp.get(comp, ()):
            if host.resident.get((svc, avoid), 0) > 0:
                tallies[PruneCode.ANTI_AFFINITY] = \
                    tallies.get(PruneCode.ANTI_AFFINITY, 0) + 1
                return False
        if with_affinity:
            for with_comp in aff_by_comp.get(comp, ()):
                anchor = (svc, with_comp)
                if (anchor_counts.get(anchor, 0) > 0
                        and host.resident.get(anchor, 0) <= 0):
                    tallies[PruneCode.AFFINITY] = \
                        tallies.get(PruneCode.AFFINITY, 0) + 1
                    return False
        return True

    def place(item, host) -> None:
        host.cpu_free -= item.cpu
        host.mem_free -= item.memory_mb
        key = (item.service_id, item.component)
        host.resident[key] = host.resident.get(key, 0) + 1
        anchor_counts[key] = anchor_counts.get(key, 0) + 1

    def unplace(item, host) -> None:
        host.cpu_free += item.cpu
        host.mem_free += item.memory_mb
        key = (item.service_id, item.component)
        host.resident[key] -= 1
        anchor_counts[key] -= 1

    def candidates(item, with_affinity=True):
        tallies: dict = {}
        found = [h for h in hosts if check(item, h, tallies, with_affinity)]
        return found, tallies

    def backtrack(depth: int) -> bool:
        nonlocal nodes, failure
        if depth == n_items:
            return True
        min_stage = min(stage[i] for i in range(n_items)
                        if assignment[i] is None)
        chosen = None           # (mrv key, item index, candidate hosts)
        for i in range(n_items):
            if assignment[i] is not None or stage[i] != min_stage:
                continue
            item = items[i]
            cands, tallies = candidates(item)
            deduped, seen = [], set()
            for h in sorted(cands,
                            key=lambda h: (h.mem_free, h.cpu_free, h.index)):
                sig = h.signature()
                if sig not in seen:
                    seen.add(sig)
                    deduped.append(h)
            if not deduped:
                if failure is None or depth > failure[0]:
                    failure = (depth, item.name, tallies)
                return False
            key = (len(deduped), -item.memory_mb, -item.cpu, i)
            if chosen is None or key < chosen[0]:
                chosen = (key, i, deduped)
        assert chosen is not None
        _, i, deduped = chosen
        item = items[i]
        for host in deduped:
            nodes += 1
            if nodes > budget.max_nodes:
                raise _Exhausted
            place(item, host)
            assignment[i] = host.index
            ok = _forward_consistent(depth + 1) and backtrack(depth + 1)
            if ok:
                return True
            assignment[i] = None
            unplace(item, host)
        return False

    def _forward_consistent(depth: int) -> bool:
        nonlocal failure
        for k in range(n_items):
            if assignment[k] is not None:
                continue
            item = items[k]
            tallies: dict = {}
            if not any(check(item, h, tallies, False) for h in hosts):
                if failure is None or depth > failure[0]:
                    failure = (depth, item.name, tallies)
                return False
        return True

    try:
        if backtrack(0):
            return Solution(assignment=tuple(assignment), nodes=nodes)
    except _Exhausted:
        return Unsolved(
            explanation=Explanation(
                PruneCode.BUDGET,
                f"search budget exhausted after {nodes} node(s)",
                {"nodes": nodes, "max_nodes": budget.max_nodes}),
            nodes=nodes, exhausted=True)
    depth, name, tallies = failure if failure is not None \
        else (0, items[0].name, {})
    return Unsolved(
        explanation=from_tallies(name, tallies, depth=depth, nodes=nodes),
        nodes=nodes)


def _stage_order(items, aff_by_comp) -> list[int]:
    """Per-item stage index: affinity anchors before dependents.

    Longest-chain relaxation over the component dependency graph
    (``a`` co-locates with ``b`` ⇒ ``b``'s stage < ``a``'s), iterated at
    most |components| times so cycles terminate (cyclic groups end up
    level and are evaluated greedily at placement time)."""
    comps = {item.component for item in items}
    level = {c: 0 for c in comps}
    for _ in range(len(comps)):
        changed = False
        for a, anchors in aff_by_comp.items():
            if a not in level:
                continue
            for b in anchors:
                if b in level and level[a] < level[b] + 1:
                    level[a] = level[b] + 1
                    changed = True
        if not changed:
            break
    return [level[item.component] for item in items]
