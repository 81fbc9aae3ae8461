"""The Manifest Parser component of the Service Manager.

§5.1: "The parser handles and processes the service specification (in OVF)
provided by the Service Provider, extracting from it a suitable service
lifecycle that meets the provider requirements" — i.e. it turns the manifest
into the internal representation the other Service Manager components
consume: validated abstract syntax, per-system descriptor *templates*, the
placement constraint set, and the installed-rule set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ...cloud.placement import (
    Affinity,
    AntiAffinity,
    ComponentCap,
    PlacementConstraint,
)
from ...cloud.vm import DeploymentDescriptor
from ..manifest.elasticity import ElasticityRule
from ..manifest.model import ServiceManifest, VirtualSystem
from ..manifest.validation import ValidationIssue, ensure_valid

__all__ = ["ParsedService", "ManifestParser"]


@dataclass
class ParsedService:
    """Internal representation of one submitted service (§5.1.1 step 1)."""

    service_id: str
    manifest: ServiceManifest
    warnings: list[ValidationIssue] = field(default_factory=list)

    def descriptor_for(self, system: VirtualSystem,
                       instance: int) -> DeploymentDescriptor:
        """Generate the deployment descriptor for one instance (§4.2.2:
        descriptor fields are *derived from* the manifest — the Association
        invariant then re-checks the derivation independently)."""
        manifest = self.manifest
        name = (system.system_id if instance == 0
                else f"{system.system_id}-{instance}")
        return DeploymentDescriptor(
            name=name,
            memory_mb=system.hardware.memory_mb,
            cpu=system.hardware.cpu,
            disk_source=manifest.image_href(system),
            networks=tuple(system.network_refs),
            customisation=dict(system.customisation_dict()),
            service_id=self.service_id,
            component_id=system.system_id,
        )

    def placement_constraints(self) -> list[PlacementConstraint]:
        """MDL5 manifest constraints → VEEM placer constraints."""
        constraints: list[PlacementConstraint] = []
        placement = self.manifest.placement
        for c in placement.colocations:
            constraints.append(Affinity(c.system_id, c.with_system_id))
        for a in placement.anti_colocations:
            constraints.append(
                AntiAffinity(a.system_id, a.avoid_system_id))
        for system_id, cap in placement.per_host_caps:
            constraints.append(ComponentCap(system_id, cap))
        return constraints

    def rules(self) -> tuple[ElasticityRule, ...]:
        return self.manifest.elasticity_rules

    def resolve_action_target(self, component_ref: str) -> Optional[str]:
        """Action component ref → virtual-system id (``...<id>.ref`` style
        accepted, as in the §6.1.2 manifest)."""
        ids = set(self.manifest.system_ids())
        if component_ref in ids:
            return component_ref
        parts = component_ref.split(".")
        if len(parts) >= 2 and parts[-1] == "ref" and parts[-2] in ids:
            return parts[-2]
        return None


class ManifestParser:
    """Parses and validates submissions; assigns service identifiers."""

    def __init__(self) -> None:
        self._seq = 0

    def parse(self, manifest: Union[str, ServiceManifest],
              *, service_id: Optional[str] = None) -> ParsedService:
        """Accept concrete XML or an abstract-syntax manifest.

        Validation errors reject the submission
        (:class:`~repro.core.manifest.validation.ManifestValidationError`);
        warnings are attached to the parsed service for the provider to
        review.
        """
        if isinstance(manifest, str):
            # Imported here: runs that build their manifests in code (the
            # paper harness, a federation and its shard workers) never
            # load the XML stack.
            from ..manifest.ovf_xml import manifest_from_xml
            manifest = manifest_from_xml(manifest)
        warnings = ensure_valid(manifest)
        self._seq += 1
        return ParsedService(
            service_id=service_id or f"svc-{manifest.service_name}-{self._seq}",
            manifest=manifest,
            warnings=warnings,
        )
