"""Independent checks of what the solver and the defrag planner produce.

:func:`validate_assignment` evaluates a finished assignment of a
:class:`~repro.solver.PlacementModel` from scratch: capacity, per-host
caps, anti-affinity, affinity and host attributes, with none of the
search's incremental bookkeeping. :func:`replay_safe` replays a
:class:`~repro.solver.defrag.MigrationPlan` against a host snapshot with
the VEEM's release-then-reserve order and reports every intermediate
state that oversubscribes a host. Each returns a list of violation
descriptions; empty means sound.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["validate_assignment", "replay_safe"]

_EPS = 1e-9


def validate_assignment(model, assignment) -> list[str]:
    """Violations of ``assignment`` (a host index per item) in ``model``."""
    problems: list[str] = []
    free = {h.index: [h.cpu_free, h.mem_free] for h in model.hosts}
    resident = {h.index: dict(h.resident) for h in model.hosts}
    hosts_by_index = {h.index: h for h in model.hosts}
    constraints = model.constraints
    for item, j in zip(model.items, assignment):
        host = hosts_by_index[j]
        free[j][0] -= item.cpu
        free[j][1] -= item.memory_mb
        key = (item.service_id, item.component)
        resident[j][key] = resident[j].get(key, 0) + 1
        for comp, attr, value in constraints.attribute_requirements:
            if comp == item.component and host.attributes.get(attr) != value:
                problems.append(f"{item.name}: attribute {attr}!={value!r}"
                                f" on {host.name}")
    for j, (cpu, mem) in free.items():
        if cpu < -_EPS or mem < -_EPS:
            problems.append(f"{hosts_by_index[j].name}: oversubscribed "
                            f"(cpu_free={cpu:.3f}, mem_free={mem:.1f})")
    for j, counts in resident.items():
        for comp, cap in constraints.caps:
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
        for a, avoid in constraints.anti_affinities:
            services = {svc for (svc, c), n in counts.items()
                        if n > 0 and c == a and svc is not None}
            for svc in sorted(services):
                if counts.get((svc, avoid), 0) > 0:
                    problems.append(
                        f"{hosts_by_index[j].name}: {a} co-resident "
                        f"with {avoid} (service {svc})")
    for a, with_comp in constraints.affinities:
        for item, j in zip(model.items, assignment):
            if item.component != a or item.service_id is None:
                continue
            anchor = (item.service_id, with_comp)
            anywhere = any(counts.get(anchor, 0) > 0
                           for counts in resident.values())
            if anywhere and resident[j].get(anchor, 0) <= 0:
                problems.append(f"{item.name}: not co-located with "
                                f"{with_comp}")
    return problems


def replay_safe(plan, hosts: Sequence) -> list[str]:
    """Violations met replaying ``plan``'s steps over ``hosts``' free
    capacity in plan order."""
    free = {h.name: [h.cpu_free, h.memory_free] for h in hosts}
    problems: list[str] = []
    for i, step in enumerate(plan.steps):
        if step.to_host not in free:
            problems.append(f"step {i}: unknown target {step.to_host!r}")
            continue
        target = free[step.to_host]
        if step.cpu > target[0] + _EPS or step.memory_mb > target[1] + _EPS:
            problems.append(
                f"step {i}: {step.vm_id} oversubscribes {step.to_host} "
                f"(cpu_free={target[0]:.3f}, mem_free={target[1]:.1f})")
        # Mirror the VEEM: release on the source and reserve on the
        # target both happen at migration *start*.
        if step.from_host in free:
            free[step.from_host][0] += step.cpu
            free[step.from_host][1] += step.memory_mb
        target[0] -= step.cpu
        target[1] -= step.memory_mb
    return problems
