"""Generative programming from the manifest (§4.2.3).

"the syntax and accompanying semantics can be used as input for a generative
programming tool to automate the generation of applications to control the
provisioning process ... The framework also allows the generation of custom
stubs which the service provider may use as a basis for the development by
the service provider of monitoring agents, handling issues such as
communication protocols, measurement labelling and packaging, and providing
a control interface to manage frequency and operation. This would have to be
supplemented with appropriate probes responsible for the application level
collection of measurements."

The UCL-MDA tool emitted Java from EMOF models and templates; this module
emits Python source from the manifest's abstract syntax. Two artefacts:

* :func:`generate_agent_stub` — a monitoring-agent skeleton for one ADL
  component: measurement labelling (qualified names), packaging (wire types
  and units) and scheduling (frequencies) are generated; the provider fills
  in one ``collect_*`` method per KPI with the application-level probe.
* :func:`generate_validation_script` — a stand-alone script that builds the
  §4.2.3 instruments (KPI reporter + elasticity-enforcement validator) for
  the manifest and prints their reports.

The generated source is self-contained, importable, and tested by executing
it. Manifest text reaches it only through ``repr()`` or :func:`_doc`, so a
quote, backslash or newline in a name can neither change the embedded
manifest nor end a literal early.
"""

from __future__ import annotations

import keyword
import re
from collections import Counter

from .manifest.model import ServiceManifest

__all__ = ["generate_agent_stub", "generate_validation_script"]


def _identifier(text: str) -> str:
    """Derive a safe Python identifier fragment from free-form text."""
    cleaned = re.sub(r"[^0-9A-Za-z_]", "_", text)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if keyword.iskeyword(cleaned):
        cleaned += "_"
    return cleaned


def _doc(text: str) -> str:
    """``text`` escaped for the body of a triple-double-quoted docstring:
    the docstring reads back as ``text``, and no quote in it can close the
    literal."""
    return text.encode("unicode_escape").decode("ascii").replace('"', r'\"')


def _collector_names(kpis) -> list[str]:
    """One distinct ``collect_*`` method name per KPI.

    A KPI whose last name segment is unique in the component keeps
    ``collect_<last segment>``; KPIs sharing one (``app.web.load`` and
    ``app.db.load``) are named after their whole qualified name instead,
    numbered if even that collides once made an identifier.
    """
    short = ["collect_" + _identifier(k.qualified_name.split(".")[-1])
             for k in kpis]
    counts = Counter(short)
    taken = {name for name in short if counts[name] == 1}
    names = []
    for kpi, name in zip(kpis, short):
        if counts[name] > 1:
            base = "collect_" + _identifier(kpi.qualified_name)
            name, n = base, 1
            while name in taken:
                n += 1
                name = f"{base}_{n}"
            taken.add(name)
        names.append(name)
    return names


def _class_name(text: str) -> str:
    parts = re.split(r"[^0-9A-Za-z]+", text)
    name = "".join(p[:1].upper() + p[1:] for p in parts if p) or "Component"
    return "_" + name if name[0].isdigit() else name


def generate_agent_stub(manifest: ServiceManifest, component: str) -> str:
    """Python source for a monitoring-agent stub of one ADL component.

    The generated class exposes every KPI the component declares under its
    manifest qualified name, frequency and wire type; each ``collect_*``
    method raises ``NotImplementedError`` until the provider supplies the
    application-level probe (subclass and override, or patch the instance).
    """
    if manifest.application is None:
        raise ValueError("manifest declares no application description")
    comp = manifest.application.component(component)  # may raise KeyError
    class_name = _class_name(comp.name) + "AgentStub"
    collectors = _collector_names(comp.kpis)

    lines = [
        '"""Monitoring agent stub — GENERATED, edit the collect_* methods.',
        "",
        f"Service:   {_doc(manifest.service_name)}",
        f"Component: {_doc(comp.name)} "
        f"(virtual system {_doc(repr(comp.ovf_id))})",
        "",
        "Generated by repro.core.codegen per the manifest's application",
        "description (§4.2.3). Measurement labelling, packaging and",
        "scheduling are wired; supply the application-level probes.",
        '"""',
        "",
        "from repro.monitoring.agents import MonitoringAgent",
        "from repro.monitoring.measurements import AttributeType",
        "",
        "",
        f"class {class_name}:",
        f'    """Publishes the {len(comp.kpis)} KPI(s) declared for '
        f'{_doc(repr(comp.name))}."""',
        "",
        "    def __init__(self, env, service_id, network, *, start=True):",
        "        self.agent = MonitoringAgent(",
        "            env, service_id=service_id,",
        f"            component={comp.name!r}, network=network)",
    ]
    for kpi, method in zip(comp.kpis, collectors):
        lines += [
            "        self.agent.expose(",
            f"            {kpi.qualified_name!r},",
            f"            self.{method},",
            f"            frequency_s={kpi.frequency_s!r},",
            f"            units={kpi.units!r},",
            f"            type=AttributeType.{kpi.type.name},",
            "            start=start,",
            "        )",
        ]
    lines.append("")
    for kpi, method in zip(comp.kpis, collectors):
        wire = f"wire {kpi.qualified_name} to the application"
        lines += [
            f"    def {method}(self):",
            f'        """Current value of {kpi.qualified_name}'
            + (f" ({_doc(kpi.units)})" if kpi.units else "") + '."""',
            f"        raise NotImplementedError({wire!r})",
            "",
        ]
    lines += [
        "    def stop(self):",
        "        self.agent.stop()",
        "",
    ]
    return "\n".join(lines)


def generate_validation_script(manifest: ServiceManifest,
                               service_id: str) -> str:
    """Python source for a stand-alone §4.2.3 validation instrument.

    The script defines ``attach(network)`` → instruments and
    ``report(instruments, trace)`` which prints the KPI report and the
    elasticity-enforcement summary — the run-time counterpart of the
    semantic definition.
    """
    from .manifest.ovf_xml import manifest_to_xml

    xml = manifest_to_xml(manifest)
    lines = [
        '"""Validation instruments — GENERATED (§4.2.3).',
        "",
        f"Service: {_doc(manifest.service_name)} "
        f"(instance {_doc(service_id)})",
        '"""',
        "",
        "from repro.core.constraints.instruments import generate_instruments",
        "from repro.core.manifest.ovf_xml import manifest_from_xml",
        "",
        "MANIFEST_XML = (",
        *(f"    {line!r}" for line in xml.splitlines(keepends=True)),
        ")",
        "",
        f"SERVICE_ID = {service_id!r}",
        "",
        "MANIFEST = manifest_from_xml(MANIFEST_XML)",
        "",
        "",
        "def attach(network):",
        '    """Subscribe the instruments; call before the service runs."""',
        "    return generate_instruments(MANIFEST, SERVICE_ID, network)",
        "",
        "",
        "def report(instruments, trace):",
        '    """Print the KPI report and enforcement verdicts."""',
        "    lines = []",
        "    for r in instruments.reporter.report():",
        "        status = 'SILENT' if r.silent else (",
        "            'OK' if r.frequency_ok() else 'FREQ-DRIFT')",
        "        lines.append(",
        "            f'{r.qualified_name}: {r.events} events [{status}]')",
        "    validator = instruments.validator(trace)",
        "    for rule, counts in sorted(validator.summary().items()):",
        "        lines.append(f'{rule}: {counts}')",
        "    violations = validator.violations()",
        "    lines.append(f'violations: {len(violations)}')",
        "    return '\\n'.join(lines)",
        "",
    ]
    return "\n".join(lines)
