"""Round-trip and error tests for the concrete XML syntax."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest import (
    ManifestBuilder,
    ManifestSyntaxError,
    ServiceLevelObjective,
    SLASection,
    manifest_from_xml,
    manifest_to_xml,
)
from repro.experiments.polymorph import TestbedConfig, polymorph_manifest


def paper_manifest():
    """The §6.1.2 evaluation manifest, as the builder assembles it."""
    b = ManifestBuilder("polymorphGridService")
    b.network("internal", description="service interconnect")
    b.network("dmz", public=True)
    b.component(
        "Orchestration", image_mb=4096, cpu=4, memory_mb=7168,
        networks=["internal", "dmz"], startup_order=0,
        info="BPEL orchestration web server",
        customisation={"role": "orchestrator"},
    )
    b.component(
        "GridMgmt", image_mb=4096, cpu=4, memory_mb=7168,
        networks=["internal"], startup_order=1,
        info="Condor schedd + web-service frontend",
    )
    b.component(
        "exec", image_mb=2048, cpu=1, memory_mb=1792,
        networks=["internal"], startup_order=2,
        initial=2, minimum=0, maximum=16,
        info="Condor execution service",
        customisation={"schedd": "${ip.internal.GridMgmt}"},
    )
    b.per_host_cap("exec", 4)
    b.application("polymorphGridApp")
    b.kpi("GridMgmtService", "GridMgmt", "uk.ucl.condor.schedd.queuesize",
          frequency_s=30, units="jobs", default=0)
    b.kpi("Cluster", "exec", "uk.ucl.condor.exec.instances.size",
          frequency_s=30, default=0)
    b.kpi("ClusterIdle", "exec", "uk.ucl.condor.exec.idle.size",
          frequency_s=30, default=0)
    b.rule(
        "AdjustClusterSizeUp",
        "(@uk.ucl.condor.schedd.queuesize / "
        "(@uk.ucl.condor.exec.instances.size + 1) > 4) && "
        "(@uk.ucl.condor.exec.instances.size < 16)",
        "deployVM(uk.ucl.condor.exec.ref)",
        time_constraint_ms=5000,
    )
    b.rule(
        "AdjustClusterSizeDown",
        "(@uk.ucl.condor.schedd.queuesize == 0) && "
        "(@uk.ucl.condor.exec.idle.size > 0)",
        "undeployVM(uk.ucl.condor.exec.ref)",
        time_constraint_ms=5000,
    )
    return b.build()


def test_paper_manifest_round_trip():
    m1 = paper_manifest()
    xml = manifest_to_xml(m1)
    m2 = manifest_from_xml(xml)
    assert m2 == m1


def test_xml_contains_paper_structures():
    xml = manifest_to_xml(paper_manifest())
    for needle in (
        '<ElasticityRule name="AdjustClusterSizeUp">',
        '<TimeConstraint unit="ms">5000',
        "uk.ucl.condor.schedd.queuesize",
        '<ApplicationDescription name="polymorphGridApp">',
        '<KeyPerformanceIndicator category="Agent"',
        '<ElasticityBounds initial="2" min="0" max="16"',
        '<PerHostCap id="exec" cap="4"',
        'deployVM(uk.ucl.condor.exec.ref)',
    ):
        assert needle in xml, f"missing {needle!r}"


def test_placement_sections_round_trip():
    b = ManifestBuilder("sap")
    b.component("CI", image_mb=100, replicable=False)
    b.component("DBMS", image_mb=100)
    b.component("DI", image_mb=100, initial=1, minimum=1, maximum=8)
    b.kpi("WebDisp", "DI", "com.sap.webdispatcher.kpis.sessions", default=0)
    b.rule("scale", "@com.sap.webdispatcher.kpis.sessions > 100",
           "deployVM(DI)")
    b.colocate("CI", "DBMS")
    b.anti_colocate("DI", "DBMS")
    b.site_placement("DBMS", favour=["eu-west"], require_trusted=True)
    b.site_placement(avoid=["offshore"])
    m1 = b.build()
    m2 = manifest_from_xml(manifest_to_xml(m1))
    assert m2.placement == m1.placement
    assert m2.system("CI").replicable is False


def test_rule_cooldown_round_trip():
    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=0, minimum=0, maximum=2)
    b.kpi("C", "exec", "a.b", default=0)
    b.rule("r", "@a.b > 1", "deployVM(exec)", cooldown_s=42.5)
    m2 = manifest_from_xml(manifest_to_xml(b.build(validate=False)))
    assert m2.elasticity_rules[0].cooldown_s == 42.5


def test_kpi_defaults_bound_into_parsed_rules():
    """Round-tripped rules must keep working before any measurement arrives
    — the declared defaults feed the OCL qe.default fallback."""
    m2 = manifest_from_xml(manifest_to_xml(paper_manifest()))
    rule = next(r for r in m2.elasticity_rules
                if r.name == "AdjustClusterSizeUp")
    # All KPIs default to 0 → 0/(0+1) > 4 is false: must not raise.
    assert rule.trigger.expression.holds(lambda name: None) is False


# ---------------------------------------------------------------------------
# Malformed input: only ManifestSyntaxError escapes
# ---------------------------------------------------------------------------

def evaluation_manifest_xml():
    """The paper's evaluation manifest (``polymorph_manifest``) in XML, plus
    the two numeric parts it leaves out: a disk capacity and an SLO."""
    m = polymorph_manifest(TestbedConfig())
    m = replace(
        m,
        disks=(replace(m.disks[0], capacity_mb=8192.0),) + m.disks[1:],
        sla=SLASection((ServiceLevelObjective.from_text(
            "QueueBounded", "@uk.ucl.condor.schedd.queuesize < 100",
            penalty_per_breach=5.0, defaults=m.kpi_defaults()),)))
    return manifest_to_xml(m)


_NUMERIC = re.compile(
    r'\b(size|capacity|initial|min|max|order|cap|default|cooldown|period'
    r'|target|window|penalty)="([^"]*)"'
    r'|<(CPU|Memory|Frequency|TimeConstraint)\b[^>]*>([^<]*)<')


def _numeric_fields(xml):
    """``(label, start, end)`` of every numeric attribute value and numeric
    element text; the label is the attribute or element name."""
    fields = []
    for m in _NUMERIC.finditer(xml):
        group = 2 if m.group(1) else 4
        fields.append((m.group(group - 1),) + m.span(group))
    return fields


EVALUATION_XML = evaluation_manifest_xml()
NUMERIC_FIELDS = _numeric_fields(EVALUATION_XML)


def _evaluation_with(old, new):
    assert old in EVALUATION_XML
    return EVALUATION_XML.replace(old, new, 1)


@pytest.mark.parametrize("xml, match", [
    ("<NotAnEnvelope/>", "expected <Envelope>"),
    ("<Envelope/>", "missing required attribute"),
    ("not xml at all <<<", "not well-formed"),
    ('<Envelope name="s"><VirtualSystem id="v"/></Envelope>',
     "VirtualHardwareSection"),
    ('<Envelope name="s"><ElasticityRule name="r"/></Envelope>',
     "lacks a <Trigger>"),
    ('<Envelope name="s"><ElasticityRule name="r"><Trigger/>'
     '</ElasticityRule></Envelope>', "lacks an <Expression>"),
    # values the manifest model rejects
    pytest.param(_evaluation_with('initial="0" min="0" max="16"',
                                  'initial="5" min="6" max="3"'),
                 "need minimum <= initial <= maximum, got 6/5/3",
                 id="bounds"),
    pytest.param(_evaluation_with('size="4096.0" />\n  </References>',
                                  'size="-1" />\n  </References>'),
                 "file exec-image: size must be positive", id="size"),
    pytest.param(_evaluation_with("<CPU>1.0</CPU>", "<CPU>0</CPU>"),
                 "hardware requirements must be positive", id="cpu"),
    pytest.param(_evaluation_with('type="int" units="jobs"',
                                  'type="bogus" units="jobs"'),
                 "unknown KPI type 'bogus'", id="kpi-type"),
    pytest.param(_evaluation_with('<TimeConstraint unit="ms">5000.0<',
                                  '<TimeConstraint unit="ms">-5<'),
                 "time constraint must be positive", id="time-constraint"),
    pytest.param(_evaluation_with('penalty="5.0"', 'penalty="-5"'),
                 "SLO QueueBounded: penalty must be non-negative",
                 id="penalty"),
])
def test_malformed_xml_rejected(xml, match):
    with pytest.raises(ManifestSyntaxError, match=match):
        manifest_from_xml(xml)


def test_numeric_fields_cover_the_evaluation_manifest():
    # 32 in the paper's manifest, plus the disk capacity and four SLO numbers
    assert len(NUMERIC_FIELDS) == 32 + 1 + 4
    assert manifest_from_xml(EVALUATION_XML).sla.objectives


@pytest.mark.parametrize(
    "label, start, end",
    [pytest.param(*f, id=f"{i}-{f[0]}") for i, f in enumerate(NUMERIC_FIELDS)])
def test_non_numeric_value_names_element_and_attribute(label, start, end):
    xml = EVALUATION_XML[:start] + "x" + EVALUATION_XML[end:]
    with pytest.raises(ManifestSyntaxError,
                       match="expected (a number|an integer), got 'x'") as exc:
        manifest_from_xml(xml)
    assert label in str(exc.value)


# ---------------------------------------------------------------------------
# Property-based round trip over generated manifests
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


@given(
    seed=st.integers(0, 10_000),
    n_components=st.integers(1, 5),
    n_networks=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_generated_manifest_round_trip(seed, n_components, n_networks, data):
    b = ManifestBuilder(f"svc-{seed}")
    networks = [f"net{i}" for i in range(n_networks)]
    for net in networks:
        b.network(net, public=data.draw(st.booleans()))
    for i in range(n_components):
        maximum = data.draw(st.integers(1, 8))
        initial = data.draw(st.integers(0, maximum))
        b.component(
            f"comp{i}",
            image_mb=data.draw(st.floats(1, 10_000)),
            cpu=data.draw(st.floats(0.5, 8)),
            memory_mb=data.draw(st.floats(128, 16_384)),
            networks=data.draw(st.lists(st.sampled_from(networks),
                                        unique=True) if networks
                               else st.just([])),
            initial=initial,
            minimum=data.draw(st.integers(0, initial)),
            maximum=maximum,
            startup_order=data.draw(st.integers(0, 3)),
            customisation={
                data.draw(_names): data.draw(_names)
                for _ in range(data.draw(st.integers(0, 3)))
            },
        )
    m1 = b.build(validate=False)
    m2 = manifest_from_xml(manifest_to_xml(m1))
    assert m2 == m1
