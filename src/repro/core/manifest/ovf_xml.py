"""Concrete XML syntax for service manifests (OVF envelope + extensions).

§4.2.3: "the model-denotational approach adopted here provides a basis for
automatically deriving concrete human or machine readable representations of
the language". This module is that derivation for XML: serialisation of the
abstract syntax to an OVF-style envelope, and a parser back — the round trip
is property-tested.

The layout follows DSP0243's structure (References, DiskSection,
NetworkSection, VirtualSystem with VirtualHardwareSection / ProductSection,
StartupSection), with the RESERVOIR extension sections
(``ElasticityBounds``, ``PlacementSection``, ``ApplicationDescription``,
``ElasticityRule``) in their own elements, as [13] proposes. Namespaces are
elided for readability — the structure, not the URIs, is what the semantics
bind to.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from .adl import (
    ApplicationDescription,
    ComponentDescription,
    KeyPerformanceIndicator,
)
from .elasticity import ElasticityRule, Trigger, parse_action
from .expressions import parse_expression
from .sla import ServiceLevelObjective, SLASection
from .model import (
    AntiColocationConstraint,
    ColocationConstraint,
    FileReference,
    InstanceBounds,
    LogicalNetwork,
    PlacementPolicySection,
    ServiceManifest,
    SitePlacement,
    StartupEntry,
    VirtualDisk,
    VirtualHardware,
    VirtualSystem,
)

__all__ = ["manifest_to_xml", "manifest_from_xml", "ManifestSyntaxError"]


class ManifestSyntaxError(Exception):
    """Malformed manifest XML, or a value the manifest model rejects."""


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def _bool(value: bool) -> str:
    return "true" if value else "false"


def manifest_to_xml(manifest: ServiceManifest) -> str:
    """Serialise to the concrete XML syntax (UTF-8 string)."""
    root = ET.Element("Envelope", {"name": manifest.service_name})

    refs = ET.SubElement(root, "References")
    for f in manifest.references:
        ET.SubElement(refs, "File", {
            "id": f.file_id, "href": f.href, "size": repr(f.size_mb),
        })

    disks = ET.SubElement(root, "DiskSection")
    for d in manifest.disks:
        attrs = {"diskId": d.disk_id, "fileRef": d.file_ref}
        if d.capacity_mb is not None:
            attrs["capacity"] = repr(d.capacity_mb)
        ET.SubElement(disks, "Disk", attrs)

    nets = ET.SubElement(root, "NetworkSection")
    for n in manifest.networks:
        net_el = ET.SubElement(nets, "Network", {
            "name": n.name, "public": _bool(n.public),
        })
        if n.description:
            ET.SubElement(net_el, "Description").text = n.description

    for system in manifest.virtual_systems:
        vs = ET.SubElement(root, "VirtualSystem", {
            "id": system.system_id,
            "replicable": _bool(system.replicable),
        })
        if system.info:
            ET.SubElement(vs, "Info").text = system.info
        hw = ET.SubElement(vs, "VirtualHardwareSection")
        ET.SubElement(hw, "CPU").text = repr(system.hardware.cpu)
        ET.SubElement(hw, "Memory", {"unit": "MB"}).text = \
            repr(system.hardware.memory_mb)
        for ref in system.disk_refs:
            ET.SubElement(vs, "DiskRef", {"diskId": ref})
        for ref in system.network_refs:
            ET.SubElement(vs, "NetworkRef", {"name": ref})
        if system.customisation:
            product = ET.SubElement(vs, "ProductSection")
            for key, value in system.customisation:
                ET.SubElement(product, "Property",
                              {"key": key, "value": value})
        ET.SubElement(vs, "ElasticityBounds", {
            "initial": str(system.instances.initial),
            "min": str(system.instances.minimum),
            "max": str(system.instances.maximum),
        })

    if manifest.startup:
        startup = ET.SubElement(root, "StartupSection")
        for entry in manifest.startup:
            ET.SubElement(startup, "Item", {
                "id": entry.system_id,
                "order": str(entry.order),
                "waitingForGuest": _bool(entry.wait_for_guest),
            })

    placement = manifest.placement
    if (placement.colocations or placement.anti_colocations
            or placement.site_placements or placement.per_host_caps):
        pl = ET.SubElement(root, "PlacementSection")
        for c in placement.colocations:
            ET.SubElement(pl, "Colocation", {
                "id": c.system_id, "with": c.with_system_id,
            })
        for a in placement.anti_colocations:
            ET.SubElement(pl, "AntiColocation", {
                "id": a.system_id, "avoid": a.avoid_system_id,
            })
        for sp in placement.site_placements:
            attrs = {"requireTrusted": _bool(sp.require_trusted)}
            if sp.system_id is not None:
                attrs["id"] = sp.system_id
            sp_el = ET.SubElement(pl, "SitePlacement", attrs)
            for site in sp.favour_sites:
                ET.SubElement(sp_el, "Favour", {"site": site})
            for site in sp.avoid_sites:
                ET.SubElement(sp_el, "Avoid", {"site": site})
        for system_id, cap in placement.per_host_caps:
            ET.SubElement(pl, "PerHostCap", {
                "id": system_id, "cap": str(cap),
            })

    if manifest.application is not None:
        app = ET.SubElement(root, "ApplicationDescription",
                            {"name": manifest.application.name})
        for comp in manifest.application.components:
            comp_el = ET.SubElement(app, "Component", {
                "name": comp.name, "ovf-id": comp.ovf_id,
            })
            for kpi in comp.kpis:
                kpi_el = ET.SubElement(comp_el, "KeyPerformanceIndicator", {
                    "category": kpi.category, "type": kpi.type_name,
                })
                if kpi.units:
                    kpi_el.set("units", kpi.units)
                if kpi.default is not None:
                    kpi_el.set("default", repr(kpi.default))
                freq = ET.SubElement(kpi_el, "Frequency", {"unit": "s"})
                freq.text = repr(kpi.frequency_s)
                ET.SubElement(kpi_el, "QName").text = kpi.qualified_name

    if manifest.sla:
        sla_el = ET.SubElement(root, "SLASection")
        for slo in manifest.sla:
            slo_el = ET.SubElement(sla_el, "SLObjective", {
                "name": slo.name,
                "period": repr(slo.evaluation_period_s),
                "target": repr(slo.target_compliance),
                "window": repr(slo.assessment_window_s),
                "penalty": repr(slo.penalty_per_breach),
            })
            ET.SubElement(slo_el, "Expression").text = slo.expression.unparse()

    for rule in manifest.elasticity_rules:
        rule_el = ET.SubElement(root, "ElasticityRule", {"name": rule.name})
        if rule.cooldown_s is not None:
            rule_el.set("cooldown", repr(rule.cooldown_s))
        trigger = ET.SubElement(rule_el, "Trigger")
        tc = ET.SubElement(trigger, "TimeConstraint", {"unit": "ms"})
        tc.text = repr(rule.trigger.time_constraint_ms)
        expr = ET.SubElement(trigger, "Expression")
        expr.text = rule.trigger.expression.unparse()
        for action in rule.actions:
            ET.SubElement(rule_el, "Action", {"run": action.unparse()})

    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _req(el: ET.Element, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        # Accept namespaced spellings of the same attribute (the paper's
        # snippets write ovf:id where we serialise ovf-id): ElementTree
        # renders a namespaced attribute as "{uri}local".
        local = attr.split("-")[-1]
        for key, candidate in el.attrib.items():
            if key.endswith("}" + attr) or key.endswith("}" + local):
                return candidate
        raise ManifestSyntaxError(
            f"<{el.tag}> is missing required attribute {attr!r}"
        )
    return value


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ManifestSyntaxError(f"expected boolean, got {text!r}")
    return text == "true"


def _number(text: str, where: str, kind: type = float):
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ManifestSyntaxError(
            f"{where}: expected {expected}, got {text!r}") from None


_REQUIRED = object()


def _num(el: ET.Element, attr: str, kind: type = float, default=_REQUIRED):
    """Numeric attribute ``attr`` of ``el``; required unless a default is
    given."""
    text = _req(el, attr) if default is _REQUIRED else el.get(attr)
    if text is None:
        return default
    return _number(text, f"<{el.tag}> attribute {attr!r}", kind)


def manifest_from_xml(text: str) -> ServiceManifest:
    """Parse the concrete XML syntax back into the abstract syntax."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ManifestSyntaxError(f"not well-formed XML: {exc}") from exc
    if root.tag != "Envelope":
        raise ManifestSyntaxError(f"expected <Envelope>, got <{root.tag}>")
    try:
        return _from_envelope(root)
    except ValueError as exc:   # the model's own checks, e.g. bounds order
        raise ManifestSyntaxError(str(exc)) from exc


def _from_envelope(root: ET.Element) -> ServiceManifest:
    references = tuple(
        FileReference(_req(f, "id"), _req(f, "href"), _num(f, "size"))
        for f in root.findall("./References/File")
    )
    disks = tuple(
        VirtualDisk(
            _req(d, "diskId"), _req(d, "fileRef"),
            _num(d, "capacity") if d.get("capacity") else None,
        )
        for d in root.findall("./DiskSection/Disk")
    )
    networks = tuple(
        LogicalNetwork(
            _req(n, "name"),
            description=(n.findtext("Description") or ""),
            public=_parse_bool(n.get("public", "false")),
        )
        for n in root.findall("./NetworkSection/Network")
    )

    systems = []
    for vs in root.findall("./VirtualSystem"):
        where = f"virtual system {_req(vs, 'id')!r}"
        cpu_text = vs.findtext("./VirtualHardwareSection/CPU")
        mem_text = vs.findtext("./VirtualHardwareSection/Memory")
        if cpu_text is None or mem_text is None:
            raise ManifestSyntaxError(
                f"{where} lacks a complete VirtualHardwareSection")
        bounds_el = vs.find("ElasticityBounds")
        bounds = InstanceBounds() if bounds_el is None else InstanceBounds(
            initial=_num(bounds_el, "initial", int),
            minimum=_num(bounds_el, "min", int),
            maximum=_num(bounds_el, "max", int),
        )
        systems.append(VirtualSystem(
            system_id=_req(vs, "id"),
            info=vs.findtext("Info") or "",
            hardware=VirtualHardware(
                cpu=_number(cpu_text, f"<CPU> of {where}"),
                memory_mb=_number(mem_text, f"<Memory> of {where}")),
            disk_refs=tuple(_req(d, "diskId")
                            for d in vs.findall("DiskRef")),
            network_refs=tuple(_req(n, "name")
                               for n in vs.findall("NetworkRef")),
            customisation=tuple(
                (_req(p, "key"), _req(p, "value"))
                for p in vs.findall("./ProductSection/Property")
            ),
            instances=bounds,
            replicable=_parse_bool(vs.get("replicable", "true")),
        ))

    startup = tuple(
        StartupEntry(
            system_id=_req(item, "id"),
            order=_num(item, "order", int),
            wait_for_guest=_parse_bool(item.get("waitingForGuest", "true")),
        )
        for item in root.findall("./StartupSection/Item")
    )

    pl_el = root.find("PlacementSection")
    if pl_el is None:
        placement = PlacementPolicySection()
    else:
        placement = PlacementPolicySection(
            colocations=tuple(
                ColocationConstraint(_req(c, "id"), _req(c, "with"))
                for c in pl_el.findall("Colocation")
            ),
            anti_colocations=tuple(
                AntiColocationConstraint(_req(a, "id"), _req(a, "avoid"))
                for a in pl_el.findall("AntiColocation")
            ),
            site_placements=tuple(
                SitePlacement(
                    system_id=sp.get("id"),
                    favour_sites=tuple(_req(f, "site")
                                       for f in sp.findall("Favour")),
                    avoid_sites=tuple(_req(a, "site")
                                      for a in sp.findall("Avoid")),
                    require_trusted=_parse_bool(
                        sp.get("requireTrusted", "false")),
                )
                for sp in pl_el.findall("SitePlacement")
            ),
            per_host_caps=tuple(
                (_req(c, "id"), _num(c, "cap", int))
                for c in pl_el.findall("PerHostCap")
            ),
        )

    app_el = root.find("ApplicationDescription")
    application: Optional[ApplicationDescription] = None
    if app_el is not None:
        components = []
        for comp_el in app_el.findall("Component"):
            kpis = []
            for kpi_el in comp_el.findall("KeyPerformanceIndicator"):
                qname = kpi_el.findtext("QName")
                if qname is None:
                    raise ManifestSyntaxError("KPI without <QName>")
                kpis.append(KeyPerformanceIndicator(
                    qualified_name=qname.strip(),
                    type=KeyPerformanceIndicator.type_from_name(
                        kpi_el.get("type", "int")),
                    frequency_s=_number(kpi_el.findtext("Frequency") or "30",
                                        f"<Frequency> of KPI {qname!r}"),
                    category=kpi_el.get("category", "Agent"),
                    units=kpi_el.get("units", ""),
                    default=_num(kpi_el, "default", default=None),
                ))
            components.append(ComponentDescription(
                name=_req(comp_el, "name"),
                ovf_id=_req(comp_el, "ovf-id"),
                kpis=tuple(kpis),
            ))
        application = ApplicationDescription(
            name=_req(app_el, "name"), components=tuple(components),
        )

    defaults = application.kpi_defaults() if application is not None else {}
    rules = []
    for rule_el in root.findall("ElasticityRule"):
        name = _req(rule_el, "name")
        trigger_el = rule_el.find("Trigger")
        if trigger_el is None:
            raise ManifestSyntaxError(f"rule {name!r} lacks a <Trigger>")
        expr_text = trigger_el.findtext("Expression")
        if expr_text is None:
            raise ManifestSyntaxError(f"rule {name!r} lacks an <Expression>")
        rules.append(ElasticityRule(
            name=name,
            trigger=Trigger(
                expression=parse_expression(expr_text, defaults),
                time_constraint_ms=_number(
                    trigger_el.findtext("TimeConstraint") or "5000",
                    f"<TimeConstraint> of rule {name!r}"),
            ),
            actions=tuple(
                parse_action(_req(a, "run"))
                for a in rule_el.findall("Action")
            ),
            cooldown_s=_num(rule_el, "cooldown", default=None),
        ))

    sla_el = root.find("SLASection")
    if sla_el is None:
        sla = SLASection()
    else:
        objectives = []
        for slo_el in sla_el.findall("SLObjective"):
            expr_text = slo_el.findtext("Expression")
            if expr_text is None:
                raise ManifestSyntaxError(
                    f"SLO {_req(slo_el, 'name')!r} lacks an <Expression>"
                )
            objectives.append(ServiceLevelObjective(
                name=_req(slo_el, "name"),
                expression=parse_expression(expr_text, defaults),
                evaluation_period_s=_num(slo_el, "period", default=30.0),
                target_compliance=_num(slo_el, "target", default=0.95),
                assessment_window_s=_num(slo_el, "window", default=3600.0),
                penalty_per_breach=_num(slo_el, "penalty", default=1.0),
            ))
        sla = SLASection(tuple(objectives))

    return ServiceManifest(
        service_name=_req(root, "name"),
        references=references,
        disks=disks,
        networks=networks,
        virtual_systems=tuple(systems),
        startup=startup,
        placement=placement,
        application=application,
        elasticity_rules=tuple(rules),
        sla=sla,
    )
