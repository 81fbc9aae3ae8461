"""Compile manifests, live hosts and admission tables into the model.

Three encoders cover the solver's call sites:

* :func:`encode_service` — a service's initial instance set against a
  site's live hosts (the control plane's fallback re-plan after a greedy
  :class:`~repro.cloud.errors.CapacityError`);
* :func:`encode_admission` — a candidate manifest's worst case plus an
  :class:`~repro.cloud.capacity.AdmissionController`'s committed ceiling
  onto the pool's empty bins (the exact what-if verdict where the FFD
  packer refused);
* :func:`encode_items` — the raw items × hosts × constraints assembly the
  other two are built on.

Constraint compilation mirrors the live placer exactly: the model's
residency checks are ``(service_id, component)``-scoped just like
``_same_service``, so a solver verdict is a statement about what the real
:class:`~repro.cloud.placement.Placer` would accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..cloud.capacity import AdmissionController, demand_envelope
from ..cloud.placement import (
    Affinity,
    AntiAffinity,
    AttributeRequirement,
    ComponentCap,
)
from ..core.manifest.model import ServiceManifest
from .model import HostView, Item, ModelConstraints, PlacementModel

__all__ = ["ItemSpec", "UnsupportedConstraintError", "compile_constraints",
           "snapshot_hosts", "encode_items", "encode_service",
           "encode_admission"]


class UnsupportedConstraintError(ValueError):
    """A placer constraint type the model cannot encode — callers fall
    back to the greedy verdict rather than solve an unfaithful model."""


@dataclass(frozen=True)
class ItemSpec:
    """One instance to place, before model indexing."""

    name: str
    component: str
    service_id: Optional[str]
    cpu: float
    memory_mb: float


def snapshot_hosts(hosts: Sequence) -> list[HostView]:
    """Copy live :class:`~repro.cloud.veeh.Host` state into host views.

    Failed hosts are skipped (they admit nothing); residency counts every
    reserved VM — a PENDING or MIGRATING VEE holds capacity exactly like a
    RUNNING one.
    """
    views: list[HostView] = []
    for index, host in enumerate(hosts):
        if getattr(host, "failed", False):
            continue
        resident: dict = {}
        for vm in host.vms:
            d = vm.descriptor
            key = (d.service_id, d.component_id)
            resident[key] = resident.get(key, 0) + 1
        views.append(HostView(
            index=index, name=host.name,
            cpu_free=host.cpu_free, mem_free=host.memory_free,
            attributes=dict(host.attributes), resident=resident,
        ))
    return views


def compile_constraints(constraints: Iterable) -> ModelConstraints:
    """Placer constraint objects → the model's compiled tuples.

    Raises :class:`UnsupportedConstraintError` for constraint types the
    model has no encoding for (user-defined subclasses): solving a model
    that silently drops a hard predicate would "rescue" placements the
    live placer then refuses.
    """
    affinities, antis, caps, attrs = [], [], [], []
    for c in constraints:
        if isinstance(c, Affinity):
            affinities.append((c.component, c.with_component))
        elif isinstance(c, AntiAffinity):
            antis.append((c.component, c.avoid_component))
        elif isinstance(c, ComponentCap):
            caps.append((c.component, c.cap))
        elif isinstance(c, AttributeRequirement):
            attrs.append((c.component, c.attribute, c.value))
        else:
            raise UnsupportedConstraintError(
                f"cannot encode {type(c).__name__}")
    return ModelConstraints(
        affinities=tuple(affinities), anti_affinities=tuple(antis),
        caps=tuple(caps), attribute_requirements=tuple(attrs),
    )


def encode_items(specs: Iterable[ItemSpec], hosts: Sequence[HostView],
                 constraints: Optional[ModelConstraints] = None
                 ) -> PlacementModel:
    items = [Item(index=i, name=s.name, component=s.component,
                  service_id=s.service_id, cpu=s.cpu,
                  memory_mb=s.memory_mb)
             for i, s in enumerate(specs)]
    return PlacementModel(
        items=items, hosts=list(hosts),
        constraints=constraints or ModelConstraints(),
    )


def _instance_name(system_id: str, instance: int) -> str:
    # Must match ParsedService.descriptor_for so plan keys line up with
    # the descriptors the lifecycle will actually generate.
    return system_id if instance == 0 else f"{system_id}-{instance}"


def service_specs(manifest: ServiceManifest, *,
                  service_id: Optional[str] = None) -> list[ItemSpec]:
    """The manifest's initial instance set, in deployment naming order."""
    specs: list[ItemSpec] = []
    for system in manifest.virtual_systems:
        for instance in range(system.instances.initial):
            specs.append(ItemSpec(
                name=_instance_name(system.system_id, instance),
                component=system.system_id, service_id=service_id,
                cpu=system.hardware.cpu,
                memory_mb=system.hardware.memory_mb,
            ))
    return specs


def encode_service(manifest: ServiceManifest, hosts: Sequence, *,
                   constraints: Iterable,
                   service_id: Optional[str] = None) -> PlacementModel:
    """A service's initial instances against live hosts.

    ``constraints`` takes the owning placer's live constraint list (which
    may include other services' installed constraints — same-named
    components are service-scoped at check time, so compiling them all is
    exactly the live behaviour).
    """
    return encode_items(
        service_specs(manifest, service_id=service_id),
        snapshot_hosts(hosts), compile_constraints(constraints),
    )


def encode_admission(admission: AdmissionController,
                     manifest: ServiceManifest, *,
                     service_id: Optional[str] = None) -> PlacementModel:
    """The committed worst case plus a candidate, on the pool's empty bins.

    Committed rows keep their owner (the service's index among the
    admitted) as a synthetic service id, so per-host caps stay
    service-scoped like the live placer (a deliberate refinement of the
    FFD packer, which tallies caps by bare component name); the
    candidate's ceiling gets ``service_id``.
    """
    specs: list[ItemSpec] = []
    caps: dict[str, int] = {}
    for owner, comp, cpu, mem, cap in admission.committed_rows():
        specs.append(ItemSpec(
            name=f"committed-{owner}-{len(specs)}", component=comp,
            service_id=f"committed-{owner}", cpu=cpu, memory_mb=mem,
        ))
        if cap is not None:
            caps.setdefault(comp, cap)
    candidate = service_id or f"candidate-{manifest.service_name}"
    envelope = demand_envelope(manifest)
    for i, d in enumerate(envelope.ceiling):
        specs.append(ItemSpec(
            name=f"{candidate}-{d.component}-{i}", component=d.component,
            service_id=candidate, cpu=d.cpu, memory_mb=d.memory_mb,
        ))
        if d.per_host_cap is not None:
            caps.setdefault(d.component, d.per_host_cap)
    host = admission.host
    bins = [HostView(index=i, name=f"bin-{i}",
                     cpu_free=host.cpu_cores, mem_free=host.memory_mb)
            for i in range(admission.pool_hosts)]
    return encode_items(
        specs, bins,
        ModelConstraints(caps=tuple(sorted(caps.items()))),
    )
