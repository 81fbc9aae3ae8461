"""Well-formedness rules for service manifests.

The second facet of the language definition (§4.2: "the abstract syntax, the
well-formedness rules, and the behavioural semantics"). These are static
checks a Service Manager runs at submission time, before any deployment —
dangling references, contradictory constraints, undeclared KPIs, conditions
that do not compile. A condition may read the built-in time parameters
(``expressions.BUILTIN_KPIS``) without declaring them.

Severities: ``error`` manifests must be rejected; ``warning`` manifests are
deployable but suspicious (e.g. a declared KPI nothing consumes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .elasticity import VEEMOperation
from .expressions import BUILTIN_KPIS, Expression, ExpressionError
from .model import ServiceManifest

__all__ = ["Severity", "ValidationIssue", "validate_manifest",
           "ManifestValidationError", "ensure_valid"]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.code}: {self.message}"


class ManifestValidationError(Exception):
    """Raised by :func:`ensure_valid` when errors are present."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__(
            "; ".join(str(i) for i in issues if i.severity is Severity.ERROR)
        )


def validate_manifest(manifest: ServiceManifest) -> list[ValidationIssue]:
    """Run every well-formedness rule; returns all issues found."""
    issues: list[ValidationIssue] = []

    def error(code: str, message: str) -> None:
        issues.append(ValidationIssue(Severity.ERROR, code, message))

    def warning(code: str, message: str) -> None:
        issues.append(ValidationIssue(Severity.WARNING, code, message))

    def compiles(expression: Expression, code: str, owner: str) -> None:
        # Whatever validates also deploys: the engine compiles each
        # condition when it installs it.
        try:
            expression.compile()
        except ExpressionError as exc:
            error(code, f"{owner}: condition does not compile: {exc}")

    file_ids = {f.file_id for f in manifest.references}
    disk_ids = {d.disk_id for d in manifest.disks}
    net_names = {n.name for n in manifest.networks}
    system_ids = set(manifest.system_ids())

    # -- uniqueness ----------------------------------------------------------
    if len(file_ids) != len(manifest.references):
        error("dup-file", "duplicate file reference ids")
    if len(disk_ids) != len(manifest.disks):
        error("dup-disk", "duplicate disk ids")
    if len(net_names) != len(manifest.networks):
        error("dup-network", "duplicate network names")
    if len(system_ids) != len(manifest.virtual_systems):
        error("dup-system", "duplicate virtual system ids")

    # -- reference integrity ----------------------------------------------------
    for disk in manifest.disks:
        if disk.file_ref not in file_ids:
            error("disk-fileref",
                  f"disk {disk.disk_id!r} references unknown file "
                  f"{disk.file_ref!r}")
    for system in manifest.virtual_systems:
        for ref in system.disk_refs:
            if ref not in disk_ids:
                error("system-diskref",
                      f"system {system.system_id!r} references unknown disk "
                      f"{ref!r}")
        if not system.disk_refs:
            error("system-no-disk",
                  f"system {system.system_id!r} has no disk; it cannot boot")
        for ref in system.network_refs:
            if ref not in net_names:
                error("system-netref",
                      f"system {system.system_id!r} references unknown "
                      f"network {ref!r}")

    # -- startup section ----------------------------------------------------------
    seen_startup = set()
    for entry in manifest.startup:
        if entry.system_id not in system_ids:
            error("startup-unknown",
                  f"startup entry references unknown system "
                  f"{entry.system_id!r}")
        if entry.system_id in seen_startup:
            error("startup-dup",
                  f"system {entry.system_id!r} appears twice in the startup "
                  f"section")
        seen_startup.add(entry.system_id)

    # -- placement ---------------------------------------------------------------
    for c in manifest.placement.colocations:
        for sid in (c.system_id, c.with_system_id):
            if sid not in system_ids:
                error("coloc-unknown",
                      f"co-location references unknown system {sid!r}")
    for a in manifest.placement.anti_colocations:
        for sid in (a.system_id, a.avoid_system_id):
            if sid not in system_ids:
                error("anticoloc-unknown",
                      f"anti-co-location references unknown system {sid!r}")
    coloc_pairs = {frozenset((c.system_id, c.with_system_id))
                   for c in manifest.placement.colocations}
    anti_pairs = {frozenset((a.system_id, a.avoid_system_id))
                  for a in manifest.placement.anti_colocations}
    for pair in coloc_pairs & anti_pairs:
        error("coloc-contradiction",
              f"components {sorted(pair)} are constrained to be both "
              f"co-located and anti-co-located")
    for sp in manifest.placement.site_placements:
        if sp.system_id is not None and sp.system_id not in system_ids:
            error("site-unknown",
                  f"site placement references unknown system "
                  f"{sp.system_id!r}")
        overlap = set(sp.favour_sites) & set(sp.avoid_sites)
        if overlap:
            error("site-contradiction",
                  f"sites {sorted(overlap)} are both favoured and avoided")
    for system_id, cap in manifest.placement.per_host_caps:
        if system_id not in system_ids:
            error("cap-unknown",
                  f"per-host cap references unknown system {system_id!r}")
        if cap <= 0:
            error("cap-value", f"per-host cap for {system_id!r} must be > 0")

    # -- application description -----------------------------------------------------
    declared: set[str] = set()
    if manifest.application is not None:
        declared = manifest.application.declared_names()
        for comp in manifest.application.components:
            if comp.ovf_id not in system_ids:
                error("adl-binding",
                      f"ADL component {comp.name!r} is bound to unknown "
                      f"virtual system {comp.ovf_id!r}")

    # -- elasticity rules ---------------------------------------------------------
    rule_names = [r.name for r in manifest.elasticity_rules]
    if len(set(rule_names)) != len(rule_names):
        error("dup-rule", "duplicate elasticity rule names")
    consumed: set[str] = set()
    for rule in manifest.elasticity_rules:
        for qname in rule.kpi_references():
            consumed.add(qname)
            if qname not in declared and qname not in BUILTIN_KPIS:
                error("rule-undeclared-kpi",
                      f"rule {rule.name!r} references KPI {qname!r} not "
                      f"declared in the application description")
        compiles(rule.trigger.expression, "rule-condition",
                 f"rule {rule.name!r}")
        for action in rule.actions:
            if action.operation in (VEEMOperation.DEPLOY_VM,
                                    VEEMOperation.UNDEPLOY_VM,
                                    VEEMOperation.MIGRATE_VM,
                                    VEEMOperation.RECONFIGURE_VM):
                target = _ref_to_system(action.component_ref, system_ids)
                if target is None:
                    error("action-target",
                          f"rule {rule.name!r}: action "
                          f"{action.unparse()!r} does not resolve to a "
                          f"virtual system")
                else:
                    system = manifest.system(target)
                    if (action.operation is VEEMOperation.DEPLOY_VM
                            and not system.instances.elastic):
                        error("action-not-elastic",
                              f"rule {rule.name!r} deploys instances of "
                              f"{target!r} but its instance bounds are fixed")
                    if (action.operation is VEEMOperation.DEPLOY_VM
                            and not system.replicable):
                        error("action-not-replicable",
                              f"rule {rule.name!r} would replicate "
                              f"non-replicable component {target!r}")

    # -- SLA section ----------------------------------------------------------
    slo_names = [o.name for o in manifest.sla.objectives]
    if len(set(slo_names)) != len(slo_names):
        error("dup-slo", "duplicate SLO names")
    for slo in manifest.sla.objectives:
        for qname in slo.kpi_references():
            consumed.add(qname)
            if qname not in declared and qname not in BUILTIN_KPIS:
                error("slo-undeclared-kpi",
                      f"SLO {slo.name!r} references KPI {qname!r} not "
                      f"declared in the application description")
        compiles(slo.expression, "slo-condition", f"SLO {slo.name!r}")

    for qname in declared - consumed:
        warning("kpi-unused",
                f"KPI {qname!r} is declared but consumed by no rule or SLO")

    # -- elastic systems without rules ------------------------------------------------
    for system in manifest.virtual_systems:
        if system.instances.elastic:
            drives_it = any(
                _ref_to_system(a.component_ref, system_ids) == system.system_id
                for r in manifest.elasticity_rules for a in r.actions
            )
            if not drives_it:
                warning("elastic-undriven",
                        f"system {system.system_id!r} is elastic but no "
                        f"rule adjusts it")

    return issues


def _ref_to_system(component_ref: str, system_ids: set[str]):
    """Resolve an action's component ref to a virtual-system id.

    Accepts either the bare system id or the paper's dotted ``...<id>.ref``
    style where the second-to-last segment names the system (e.g.
    ``uk.ucl.condor.exec.ref`` for system ``exec``).
    """
    if component_ref in system_ids:
        return component_ref
    parts = component_ref.split(".")
    if len(parts) >= 2 and parts[-1] == "ref" and parts[-2] in system_ids:
        return parts[-2]
    return None


def ensure_valid(manifest: ServiceManifest) -> list[ValidationIssue]:
    """Validate; raise on errors, return warnings otherwise."""
    issues = validate_manifest(manifest)
    if any(i.severity is Severity.ERROR for i in issues):
        raise ManifestValidationError(issues)
    return issues
