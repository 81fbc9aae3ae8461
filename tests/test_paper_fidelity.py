"""Fidelity: the concrete syntax printed in the paper parses as-is.

§6.1.2 prints the evaluation manifest's elasticity rule and application
description verbatim. Those snippets (wrapped in an envelope, with XML
entities escaped and the ovf namespace declared — the minimum to make them
well-formed XML at all) must parse into the expected abstract syntax.
"""

import pytest

from repro.core.manifest.elasticity import parse_action
from repro.core.manifest.ovf_xml import manifest_from_xml

# The two snippets exactly as printed in §6.1.2, embedded in an envelope.
PAPER_XML = """
<Envelope name="polymorphGridService"
          xmlns:ovf="http://schemas.dmtf.org/ovf/envelope/1">
  <References>
    <File id="GM-image" href="http://sm.internal/images/GM" size="4096"/>
    <File id="exec-image" href="http://sm.internal/images/exec" size="2048"/>
  </References>
  <DiskSection>
    <Disk diskId="GM-disk" fileRef="GM-image"/>
    <Disk diskId="exec-disk" fileRef="exec-image"/>
  </DiskSection>
  <VirtualSystem id="GM">
    <VirtualHardwareSection>
      <CPU>4</CPU>
      <Memory unit="MB">8192</Memory>
    </VirtualHardwareSection>
    <DiskRef diskId="GM-disk"/>
  </VirtualSystem>
  <VirtualSystem id="exec">
    <VirtualHardwareSection>
      <CPU>1</CPU>
      <Memory unit="MB">2048</Memory>
    </VirtualHardwareSection>
    <DiskRef diskId="exec-disk"/>
    <ElasticityBounds initial="0" min="0" max="16"/>
  </VirtualSystem>

  <ApplicationDescription name="polymorphGridApp">
    <Component name="GridMgmtService" ovf:id="GM">
      <KeyPerformanceIndicator category="Agent" type="int" default="0">
        <Frequency unit="s">30</Frequency>
        <QName>uk.ucl.condor.schedd.queuesize</QName>
      </KeyPerformanceIndicator>
    </Component>
    <Component name="Cluster" ovf:id="exec">
      <KeyPerformanceIndicator category="Agent" type="int" default="0">
        <Frequency unit="s">30</Frequency>
        <QName>uk.ucl.condor.exec.instances.size</QName>
      </KeyPerformanceIndicator>
    </Component>
  </ApplicationDescription>

  <ElasticityRule name="AdjustClusterSizeUp">
    <Trigger>
      <TimeConstraint unit="ms">5000</TimeConstraint>
      <Expression>
        (@uk.ucl.condor.schedd.queuesize /
        (@uk.ucl.condor.exec.instances.size + 1) &gt; 4) &amp;&amp;
        (@uk.ucl.condor.exec.instances.size &lt; 16)
      </Expression>
    </Trigger>
    <Action run="deployVM(uk.ucl.condor.exec.ref)"/>
  </ElasticityRule>
</Envelope>
"""


@pytest.fixture(scope="module")
def manifest():
    return manifest_from_xml(PAPER_XML)


def test_namespaced_ovf_id_accepted(manifest):
    comp = manifest.application.component("GridMgmtService")
    assert comp.ovf_id == "GM"


def test_paper_kpi_declaration(manifest):
    kpi = manifest.application.kpi("uk.ucl.condor.schedd.queuesize")
    assert kpi.frequency_s == 30
    assert kpi.type_name == "int"
    assert kpi.category == "Agent"


def test_paper_rule_semantics(manifest):
    rule = manifest.elasticity_rules[0]
    assert rule.name == "AdjustClusterSizeUp"
    assert rule.trigger.time_constraint_ms == 5000
    action = rule.actions[0]
    assert action.unparse() == "deployVM(uk.ucl.condor.exec.ref)"

    # Evaluate the exact printed condition with the §6 scenario values.
    def bindings(values):
        return lambda name: values.get(name)

    expr = rule.trigger.expression
    # 200 queued jobs, 2 instances: 200/3 > 4 and 2 < 16 → fire.
    assert expr.holds(bindings({
        "uk.ucl.condor.schedd.queuesize": 200,
        "uk.ucl.condor.exec.instances.size": 2}))
    # Cluster full: hold off.
    assert not expr.holds(bindings({
        "uk.ucl.condor.schedd.queuesize": 200,
        "uk.ucl.condor.exec.instances.size": 16}))
    # Exactly at the paper's "more than 4 idle jobs" boundary: 4 jobs per
    # instance+1 is NOT more than 4 → hold off.
    assert not expr.holds(bindings({
        "uk.ucl.condor.schedd.queuesize": 8,
        "uk.ucl.condor.exec.instances.size": 1}))


def test_paper_elastic_bounds(manifest):
    system = manifest.system("exec")
    assert system.instances.minimum == 0
    assert system.instances.maximum == 16
    assert system.instances.elastic


def test_paper_action_grammar():
    action = parse_action("deployVM(uk.ucl.condor.exec.ref)")
    assert action.operation.value == "deployVM"
    assert action.component_ref == "uk.ucl.condor.exec.ref"
