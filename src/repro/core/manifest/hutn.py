"""Human-readable concrete syntax for service manifests (HUTN-style).

§4.2 lists the concrete languages a RESERVOIR component may use for the same
abstract syntax: "implementation languages (Java, C++, etc.), higher-level
'meta' languages (HUTN, XML, etc.), or even differing standards". The XML
form lives in :mod:`.ovf_xml`; this module provides the human-oriented one,
in the spirit of the OMG Human-Usable Textual Notation: blocks with braces,
one declaration per line.

Example::

    service webshop {
      network internal
      network dmz public "browser-facing"

      file web-image at "http://sm.internal/images/web" size 1024
      disk web-disk from web-image

      system web {
        info "stateless web tier"
        cpu 1
        memory 1024
        disks web-disk
        networks internal dmz
        custom "db_host" = "${ip.internal.db}"
        instances 1..3 initial 1
      }

      startup {
        web order 0
      }

      placement {
        colocate ci with db
        per-host-cap web 4
      }

      application webshop-app {
        component LB on web {
          kpi com.shop.lb.sessions int every 10 units "sessions" default 0
        }
      }

      rule up within 5000 {
        when (@com.shop.lb.sessions / 100 > 1)
        do deployVM(web)
      }

      slo responsive period 30 target 0.95 window 3600 penalty 50 {
        must @com.shop.lb.sessions < 10000
      }
    }

Both directions are provided (:func:`manifest_to_text`,
:func:`manifest_from_text`) and the round trip is property-tested.
"""

from __future__ import annotations

import re
import shlex
from typing import Optional

from .adl import (
    ApplicationDescription,
    ComponentDescription,
    KeyPerformanceIndicator,
)
from .elasticity import ElasticityRule, Trigger, parse_action
from .expressions import parse_expression
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
from .sla import ServiceLevelObjective, SLASection

__all__ = ["manifest_to_text", "manifest_from_text", "HutnSyntaxError"]


class HutnSyntaxError(Exception):
    """Malformed textual manifest, or a value the manifest model rejects."""


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def manifest_to_text(manifest: ServiceManifest) -> str:
    """Render the abstract syntax in the textual notation."""
    out: list[str] = [f"service {manifest.service_name} {{"]

    for n in manifest.networks:
        line = f"  network {n.name}"
        if n.public:
            line += " public"
        if n.description:
            line += f" {_quote(n.description)}"
        out.append(line)

    for f in manifest.references:
        out.append(f"  file {f.file_id} at {_quote(f.href)} "
                   f"size {_num(f.size_mb)}")
    for d in manifest.disks:
        line = f"  disk {d.disk_id} from {d.file_ref}"
        if d.capacity_mb is not None:
            line += f" capacity {_num(d.capacity_mb)}"
        out.append(line)

    for s in manifest.virtual_systems:
        out.append(f"  system {s.system_id} {{")
        if s.info:
            out.append(f"    info {_quote(s.info)}")
        out.append(f"    cpu {_num(s.hardware.cpu)}")
        out.append(f"    memory {_num(s.hardware.memory_mb)}")
        if s.disk_refs:
            out.append("    disks " + " ".join(s.disk_refs))
        if s.network_refs:
            out.append("    networks " + " ".join(s.network_refs))
        for key, value in s.customisation:
            out.append(f"    custom {_quote(key)} = {_quote(value)}")
        bounds = s.instances
        out.append(f"    instances {bounds.minimum}..{bounds.maximum} "
                   f"initial {bounds.initial}")
        if not s.replicable:
            out.append("    not-replicable")
        out.append("  }")

    if manifest.startup:
        out.append("  startup {")
        for entry in manifest.startup:
            line = f"    {entry.system_id} order {entry.order}"
            if not entry.wait_for_guest:
                line += " nowait"
            out.append(line)
        out.append("  }")

    placement = manifest.placement
    if (placement.colocations or placement.anti_colocations
            or placement.site_placements or placement.per_host_caps):
        out.append("  placement {")
        for c in placement.colocations:
            out.append(f"    colocate {c.system_id} with {c.with_system_id}")
        for a in placement.anti_colocations:
            out.append(f"    anti-colocate {a.system_id} avoid "
                       f"{a.avoid_system_id}")
        for sp in placement.site_placements:
            line = "    site " + (sp.system_id or "*")
            for site in sp.favour_sites:
                line += f" favour {site}"
            for site in sp.avoid_sites:
                line += f" avoid {site}"
            if sp.require_trusted:
                line += " trusted"
            out.append(line)
        for system_id, cap in placement.per_host_caps:
            out.append(f"    per-host-cap {system_id} {cap}")
        out.append("  }")

    if manifest.application is not None:
        out.append(f"  application {manifest.application.name} {{")
        for comp in manifest.application.components:
            out.append(f"    component {comp.name} on {comp.ovf_id} {{")
            for kpi in comp.kpis:
                line = (f"      kpi {kpi.qualified_name} {kpi.type_name} "
                        f"every {_num(kpi.frequency_s)}")
                if kpi.category != "Agent":
                    line += f" category {kpi.category}"
                if kpi.units:
                    line += f" units {_quote(kpi.units)}"
                if kpi.default is not None:
                    line += f" default {_num(kpi.default)}"
                out.append(line)
            out.append("    }")
        out.append("  }")

    for rule in manifest.elasticity_rules:
        header = (f"  rule {rule.name} within "
                  f"{_num(rule.trigger.time_constraint_ms)}")
        if rule.cooldown_s is not None:
            header += f" cooldown {_num(rule.cooldown_s)}"
        out.append(header + " {")
        out.append(f"    when {rule.trigger.expression.unparse()}")
        for action in rule.actions:
            out.append(f"    do {action.unparse()}")
        out.append("  }")

    for slo in manifest.sla:
        out.append(
            f"  slo {slo.name} period {_num(slo.evaluation_period_s)} "
            f"target {_num(slo.target_compliance)} "
            f"window {_num(slo.assessment_window_s)} "
            f"penalty {_num(slo.penalty_per_breach)} {{"
        )
        out.append(f"    must {slo.expression.unparse()}")
        out.append("  }")

    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Lines:
    """Comment-stripped, significant lines with block tracking."""

    def __init__(self, text: str):
        self.lines: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.lines.append((lineno, stripped))
        self.index = 0

    def peek(self) -> Optional[tuple[int, str]]:
        return self.lines[self.index] if self.index < len(self.lines) else None

    def next(self) -> tuple[int, str]:
        item = self.peek()
        if item is None:
            raise HutnSyntaxError("unexpected end of input")
        self.index += 1
        return item

    @property
    def lineno(self) -> int:
        """Number of the line read last."""
        return self.lines[self.index - 1][0] if self.index else 0


def _tokens(line: str, lineno: int) -> list[str]:
    try:
        lexer = shlex.shlex(line, posix=True)
        lexer.whitespace_split = True
        lexer.commenters = ""
        return list(lexer)
    except ValueError as exc:
        raise HutnSyntaxError(f"line {lineno}: {exc}") from exc


def _expect_block_open(tokens: list[str], lineno: int) -> list[str]:
    if not tokens or tokens[-1] != "{":
        raise HutnSyntaxError(f"line {lineno}: expected '{{' at end of line")
    return tokens[:-1]


def _value(tokens: list[str], lineno: int) -> str:
    """The single value after a line's keyword."""
    if len(tokens) < 2:
        raise HutnSyntaxError(
            f"line {lineno}: expected a value after {tokens[0]!r}")
    return tokens[1]


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise HutnSyntaxError(
            f"line {lineno}: expected a number for {what}, got {text!r}"
        ) from None


def manifest_from_text(text: str) -> ServiceManifest:
    """Parse the textual notation back into the abstract syntax."""
    lines = _Lines(text)
    try:
        return _parse_service(lines)
    except (ValueError, OverflowError) as exc:
        # The model's own checks (bounds out of order, a rule with no
        # action, an infinite count), named by the line read last: the
        # offending line, or the closing brace of the block it ends.
        raise HutnSyntaxError(f"line {lines.lineno}: {exc}") from exc


def _parse_service(lines: _Lines) -> ServiceManifest:
    lineno, header = lines.next()
    tokens = _expect_block_open(_tokens(header, lineno), lineno)
    if len(tokens) != 2 or tokens[0] != "service":
        raise HutnSyntaxError(
            f"line {lineno}: expected 'service <name> {{', got {header!r}"
        )
    service_name = tokens[1]

    networks: list[LogicalNetwork] = []
    references: list[FileReference] = []
    disks: list[VirtualDisk] = []
    systems: list[VirtualSystem] = []
    startup: list[StartupEntry] = []
    colocations: list[ColocationConstraint] = []
    anti_colocations: list[AntiColocationConstraint] = []
    site_placements: list[SitePlacement] = []
    per_host_caps: list[tuple[str, int]] = []
    app_name: Optional[str] = None
    components: list[ComponentDescription] = []
    rules: list[ElasticityRule] = []
    slos: list[ServiceLevelObjective] = []

    def kpi_defaults() -> dict[str, float]:
        return {k.qualified_name: k.default
                for c in components for k in c.kpis if k.default is not None}

    while True:
        lineno, line = lines.next()
        if line == "}":
            break
        tokens = _tokens(line, lineno)
        keyword = tokens[0]

        if keyword == "network":
            if len(tokens) < 2:
                raise HutnSyntaxError(f"line {lineno}: network needs a name")
            public = "public" in tokens[2:]
            rest = [t for t in tokens[2:] if t != "public"]
            networks.append(LogicalNetwork(
                tokens[1], description=rest[0] if rest else "",
                public=public))

        elif keyword == "file":
            # file <id> at <href> size <mb>
            if (len(tokens) != 6 or tokens[2] != "at" or tokens[4] != "size"):
                raise HutnSyntaxError(
                    f"line {lineno}: expected 'file <id> at <href> size <mb>'"
                )
            references.append(FileReference(
                tokens[1], tokens[3],
                _parse_float(tokens[5], lineno, "file size")))

        elif keyword == "disk":
            # disk <id> from <file> [capacity <mb>]
            if len(tokens) not in (4, 6) or tokens[2] != "from":
                raise HutnSyntaxError(
                    f"line {lineno}: expected "
                    f"'disk <id> from <file> [capacity <mb>]'"
                )
            capacity = None
            if len(tokens) == 6:
                if tokens[4] != "capacity":
                    raise HutnSyntaxError(
                        f"line {lineno}: expected 'capacity', got {tokens[4]!r}"
                    )
                capacity = _parse_float(tokens[5], lineno, "capacity")
            disks.append(VirtualDisk(tokens[1], tokens[3], capacity))

        elif keyword == "system":
            tokens = _expect_block_open(tokens, lineno)
            if len(tokens) != 2:
                raise HutnSyntaxError(f"line {lineno}: system needs a name")
            systems.append(_parse_system(tokens[1], lines))

        elif keyword == "startup":
            _expect_block_open(tokens, lineno)
            while True:
                lineno, line = lines.next()
                if line == "}":
                    break
                entry_tokens = _tokens(line, lineno)
                if len(entry_tokens) < 3 or entry_tokens[1] != "order":
                    raise HutnSyntaxError(
                        f"line {lineno}: expected '<system> order <n> "
                        f"[nowait]'"
                    )
                startup.append(StartupEntry(
                    entry_tokens[0],
                    int(_parse_float(entry_tokens[2], lineno, "order")),
                    wait_for_guest="nowait" not in entry_tokens[3:],
                ))

        elif keyword == "placement":
            _expect_block_open(tokens, lineno)
            while True:
                lineno, line = lines.next()
                if line == "}":
                    break
                p = _tokens(line, lineno)
                if p[0] == "colocate" and len(p) == 4 and p[2] == "with":
                    colocations.append(ColocationConstraint(p[1], p[3]))
                elif (p[0] == "anti-colocate" and len(p) == 4
                      and p[2] == "avoid"):
                    anti_colocations.append(
                        AntiColocationConstraint(p[1], p[3]))
                elif p[0] == "per-host-cap" and len(p) == 3:
                    per_host_caps.append(
                        (p[1], int(_parse_float(p[2], lineno, "cap"))))
                elif p[0] == "site" and len(p) >= 2:
                    site_placements.append(_parse_site(p, lineno))
                else:
                    raise HutnSyntaxError(
                        f"line {lineno}: unknown placement statement "
                        f"{line!r}"
                    )

        elif keyword == "application":
            tokens = _expect_block_open(tokens, lineno)
            if len(tokens) != 2:
                raise HutnSyntaxError(
                    f"line {lineno}: application needs a name")
            app_name = tokens[1]
            while True:
                lineno, line = lines.next()
                if line == "}":
                    break
                c = _tokens(line, lineno)
                c = _expect_block_open(c, lineno)
                if len(c) != 4 or c[0] != "component" or c[2] != "on":
                    raise HutnSyntaxError(
                        f"line {lineno}: expected "
                        f"'component <name> on <system> {{'"
                    )
                components.append(_parse_adl_component(c[1], c[3], lines))

        elif keyword == "rule":
            rules.append(_parse_rule(tokens, lines, lineno, kpi_defaults()))

        elif keyword == "slo":
            slos.append(_parse_slo(tokens, lines, lineno, kpi_defaults()))

        else:
            raise HutnSyntaxError(
                f"line {lineno}: unknown declaration {keyword!r}"
            )

    application = None
    if app_name is not None or components:
        application = ApplicationDescription(
            name=app_name or service_name, components=tuple(components))
    return ServiceManifest(
        service_name=service_name,
        references=tuple(references),
        disks=tuple(disks),
        networks=tuple(networks),
        virtual_systems=tuple(systems),
        startup=tuple(startup),
        placement=PlacementPolicySection(
            colocations=tuple(colocations),
            anti_colocations=tuple(anti_colocations),
            site_placements=tuple(site_placements),
            per_host_caps=tuple(per_host_caps),
        ),
        application=application,
        elasticity_rules=tuple(rules),
        sla=SLASection(tuple(slos)),
    )


def _parse_system(system_id: str, lines: _Lines) -> VirtualSystem:
    info = ""
    cpu, memory = 1.0, 1024.0
    disk_refs: tuple[str, ...] = ()
    network_refs: tuple[str, ...] = ()
    customisation: list[tuple[str, str]] = []
    bounds = InstanceBounds()
    replicable = True
    while True:
        lineno, line = lines.next()
        if line == "}":
            break
        tokens = _tokens(line, lineno)
        key = tokens[0]
        if key == "info":
            info = tokens[1] if len(tokens) > 1 else ""
        elif key == "cpu":
            cpu = _parse_float(_value(tokens, lineno), lineno, "cpu")
        elif key == "memory":
            memory = _parse_float(_value(tokens, lineno), lineno, "memory")
        elif key == "disks":
            disk_refs = tuple(tokens[1:])
        elif key == "networks":
            network_refs = tuple(tokens[1:])
        elif key == "custom":
            if len(tokens) != 4 or tokens[2] != "=":
                raise HutnSyntaxError(
                    f"line {lineno}: expected 'custom \"key\" = \"value\"'"
                )
            customisation.append((tokens[1], tokens[3]))
        elif key == "instances":
            # instances <min>..<max> initial <n>
            match = re.match(r"^(\d+)\.\.(\d+)$", tokens[1]) \
                if len(tokens) >= 2 else None
            if (match is None or len(tokens) != 4
                    or tokens[2] != "initial"
                    or not re.match(r"^\d+$", tokens[3])):
                raise HutnSyntaxError(
                    f"line {lineno}: expected "
                    f"'instances <min>..<max> initial <n>'"
                )
            bounds = InstanceBounds(
                initial=int(tokens[3]),
                minimum=int(match.group(1)),
                maximum=int(match.group(2)),
            )
        elif key == "not-replicable":
            replicable = False
        else:
            raise HutnSyntaxError(
                f"line {lineno}: unknown system attribute {key!r}"
            )
    return VirtualSystem(
        system_id=system_id, info=info,
        hardware=VirtualHardware(cpu=cpu, memory_mb=memory),
        disk_refs=disk_refs, network_refs=network_refs,
        customisation=tuple(customisation), instances=bounds,
        replicable=replicable,
    )


def _parse_site(tokens: list[str], lineno: int) -> SitePlacement:
    system_id = None if tokens[1] == "*" else tokens[1]
    favour: list[str] = []
    avoid: list[str] = []
    trusted = False
    i = 2
    while i < len(tokens):
        if tokens[i] == "favour" and i + 1 < len(tokens):
            favour.append(tokens[i + 1])
            i += 2
        elif tokens[i] == "avoid" and i + 1 < len(tokens):
            avoid.append(tokens[i + 1])
            i += 2
        elif tokens[i] == "trusted":
            trusted = True
            i += 1
        else:
            raise HutnSyntaxError(
                f"line {lineno}: unknown site qualifier {tokens[i]!r}"
            )
    return SitePlacement(system_id=system_id, favour_sites=tuple(favour),
                         avoid_sites=tuple(avoid), require_trusted=trusted)


def _parse_adl_component(name: str, ovf_id: str,
                         lines: _Lines) -> ComponentDescription:
    kpis: list[KeyPerformanceIndicator] = []
    while True:
        lineno, line = lines.next()
        if line == "}":
            break
        tokens = _tokens(line, lineno)
        if tokens[0] != "kpi" or len(tokens) < 5 or tokens[3] != "every":
            raise HutnSyntaxError(
                f"line {lineno}: expected 'kpi <qname> <type> every <s> "
                f"[category C] [units U] [default D]'"
            )
        qname, type_name = tokens[1], tokens[2]
        frequency = _parse_float(tokens[4], lineno, "frequency")
        category, units, default = "Agent", "", None
        i = 5
        while i < len(tokens):
            if tokens[i] == "category" and i + 1 < len(tokens):
                category = tokens[i + 1]
                i += 2
            elif tokens[i] == "units" and i + 1 < len(tokens):
                units = tokens[i + 1]
                i += 2
            elif tokens[i] == "default" and i + 1 < len(tokens):
                default = _parse_float(tokens[i + 1], lineno, "default")
                i += 2
            else:
                raise HutnSyntaxError(
                    f"line {lineno}: unknown kpi qualifier {tokens[i]!r}"
                )
        kpis.append(KeyPerformanceIndicator(
            qualified_name=qname,
            type=KeyPerformanceIndicator.type_from_name(type_name),
            frequency_s=frequency, category=category, units=units,
            default=default,
        ))
    return ComponentDescription(name=name, ovf_id=ovf_id, kpis=tuple(kpis))


def _parse_rule(tokens: list[str], lines: _Lines, lineno: int,
                defaults: dict[str, float]) -> ElasticityRule:
    tokens = _expect_block_open(tokens, lineno)
    # rule <name> within <ms> [cooldown <s>]
    if len(tokens) < 4 or tokens[2] != "within":
        raise HutnSyntaxError(
            f"line {lineno}: expected 'rule <name> within <ms> "
            f"[cooldown <s>] {{'"
        )
    name = tokens[1]
    time_constraint_ms = _parse_float(tokens[3], lineno, "time constraint")
    cooldown = None
    if len(tokens) == 6 and tokens[4] == "cooldown":
        cooldown = _parse_float(tokens[5], lineno, "cooldown")
    elif len(tokens) != 4:
        raise HutnSyntaxError(f"line {lineno}: malformed rule header")

    expression = None
    actions = []
    while True:
        lineno, line = lines.next()
        if line == "}":
            break
        if line.startswith("when "):
            expression = parse_expression(line[5:], defaults)
        elif line.startswith("do "):
            actions.append(parse_action(line[3:]))
        else:
            raise HutnSyntaxError(
                f"line {lineno}: expected 'when <expr>' or 'do <action>'"
            )
    if expression is None:
        raise HutnSyntaxError(f"rule {name!r} lacks a 'when' condition")
    return ElasticityRule(
        name=name,
        trigger=Trigger(expression, time_constraint_ms=time_constraint_ms),
        actions=tuple(actions),
        cooldown_s=cooldown,
    )


def _parse_slo(tokens: list[str], lines: _Lines, lineno: int,
               defaults: dict[str, float]) -> ServiceLevelObjective:
    tokens = _expect_block_open(tokens, lineno)
    # slo <name> period <s> target <f> window <s> penalty <amount>
    if (len(tokens) != 10 or tokens[2] != "period" or tokens[4] != "target"
            or tokens[6] != "window" or tokens[8] != "penalty"):
        raise HutnSyntaxError(
            f"line {lineno}: expected 'slo <name> period <s> target <f> "
            f"window <s> penalty <amount> {{'"
        )
    name = tokens[1]
    period = _parse_float(tokens[3], lineno, "period")
    target = _parse_float(tokens[5], lineno, "target")
    window = _parse_float(tokens[7], lineno, "window")
    penalty = _parse_float(tokens[9], lineno, "penalty")
    expression = None
    while True:
        lineno, line = lines.next()
        if line == "}":
            break
        if line.startswith("must "):
            expression = parse_expression(line[5:], defaults)
        else:
            raise HutnSyntaxError(f"line {lineno}: expected 'must <expr>'")
    if expression is None:
        raise HutnSyntaxError(f"slo {name!r} lacks a 'must' condition")
    return ServiceLevelObjective(
        name=name, expression=expression, evaluation_period_s=period,
        target_compliance=target, assessment_window_s=window,
        penalty_per_breach=penalty,
    )
