"""Deep conditions fail with a typed error.

The parser refuses a condition more than ``MAX_DEPTH`` nodes deep, or one
whose text nests more than ``MAX_DEPTH`` parentheses, with an
:class:`ExpressionError` naming the position; ``compile()`` turns the
stack and nesting limits a tree built in code can reach into an
:class:`ExpressionError` too; validation compiles every rule and SLO
condition. So whatever builds and validates also round-trips through HUTN
and OVF-XML and deploys.
"""

import dataclasses

import pytest

from repro.__main__ import main
from repro.cloud.veeh import Host
from repro.cloud.veem import VEEM
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.expressions import (
    MAX_DEPTH,
    BinaryOp,
    Comparison,
    ExpressionError,
    KPIRef,
    Literal,
    parse_expression,
)
from repro.core.manifest.hutn import (
    HutnSyntaxError,
    manifest_from_text,
    manifest_to_text,
)
from repro.core.manifest.ovf_xml import (
    ManifestSyntaxError,
    manifest_from_xml,
    manifest_to_xml,
)
from repro.core.manifest.sla import ServiceLevelObjective
from repro.core.manifest.validation import Severity, validate_manifest
from repro.core.service_manager.manager import ServiceManager
from repro.sim.kernel import Environment

PAPER_CONDITION = (
    "(@uk.ucl.condor.schedd.queuesize / "
    "(@uk.ucl.condor.exec.instances.size + 1) > 4) && "
    "(@uk.ucl.condor.exec.instances.size < 16)")


def chain_text(terms: int, kpi: bool = True) -> str:
    """``@x.load + 1 + … > 0`` with ``terms`` terms; without the KPI, the
    bare sum ``1 + 1 + …``."""
    if kpi:
        return " + ".join(["@x.load"] + ["1"] * (terms - 1)) + " > 0"
    return " + ".join(["1"] * terms)


def chain_tree(terms: int, kpi: bool = True):
    tree = KPIRef("x.load", 0.0) if kpi else Literal(1.0)
    for _ in range(terms - 1):
        tree = BinaryOp("+", tree, Literal(1.0))
    return Comparison(">", tree, Literal(0.0))


def chain_manifest(terms: int):
    b = ManifestBuilder("deep")
    b.component("app", image_mb=64, initial=1, minimum=1, maximum=3)
    b.kpi("app", "app", "x.load", default=0)
    b.rule("up", chain_text(terms), "deployVM(app)")
    return b.build()


def test_the_paper_condition_is_five_deep():
    assert parse_expression(PAPER_CONDITION).depth == 5


@pytest.mark.parametrize("text", [
    "(" * 150 + "1" + ")" * 150,
    chain_text(199),
    chain_text(1000),
    chain_text(300, kpi=False),
    "-" * 300 + "1",
], ids=["parens-150", "chain-199", "chain-1000", "sum-300", "minus-300"])
def test_deep_text_raises_expression_error_naming_the_position(text):
    with pytest.raises(ExpressionError, match="at position"):
        parse_expression(text, defaults={"x.load": 0})


def test_the_bound_is_one_level_past_what_parses():
    assert parse_expression(chain_text(MAX_DEPTH - 1)).depth == MAX_DEPTH
    with pytest.raises(ExpressionError, match="deeper than"):
        parse_expression(chain_text(MAX_DEPTH))
    nested = "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH
    assert parse_expression(nested) == Literal(1.0)
    with pytest.raises(ExpressionError, match="nested parentheses"):
        parse_expression("(" + nested + ")")


@pytest.mark.parametrize("terms,kpi", [(199, True), (300, True),
                                       (1000, True), (300, False),
                                       (1000, False)])
def test_code_built_tree_too_deep_to_compile_raises_expression_error(
        terms, kpi):
    with pytest.raises(ExpressionError, match="too deep to compile"):
        chain_tree(terms, kpi).compile()


def test_validation_compiles_every_rule_and_slo():
    manifest = chain_manifest(3)
    deep = chain_tree(300)
    broken = dataclasses.replace(
        manifest,
        elasticity_rules=(dataclasses.replace(
            manifest.elasticity_rules[0],
            trigger=dataclasses.replace(manifest.elasticity_rules[0].trigger,
                                        expression=deep)),),
        sla=dataclasses.replace(manifest.sla, objectives=(
            ServiceLevelObjective("deep", deep),)))
    codes = {i.code for i in validate_manifest(broken)
             if i.severity is Severity.ERROR}
    assert codes == {"rule-condition", "slo-condition"}


def test_front_ends_raise_only_their_own_typed_errors():
    good = chain_manifest(3)
    text = manifest_to_text(good)
    xml = manifest_to_xml(good)
    condition = good.elasticity_rules[0].trigger.expression.unparse()
    xml_condition = condition.replace(">", "&gt;")
    assert condition in text and xml_condition in xml
    for deep in ("(" * 400 + "@x.load" + ")" * 400 + " > 0",
                 chain_text(1000), "-" * 1000 + "1"):
        with pytest.raises((HutnSyntaxError, ExpressionError)):
            manifest_from_text(text.replace(condition, deep))
        with pytest.raises((ManifestSyntaxError, ExpressionError)):
            manifest_from_xml(xml.replace(xml_condition,
                                          deep.replace(">", "&gt;")))


def test_cli_validate_refuses_a_deep_rule_without_a_traceback(tmp_path,
                                                              capsys):
    text = manifest_to_text(chain_manifest(3))
    condition = chain_manifest(3).elasticity_rules[0].trigger \
        .expression.unparse()
    path = tmp_path / "deep.hutn"
    path.write_text(text.replace(condition, "(" * 400 + "1" + ")" * 400))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert "parse error:" in out.err
    assert "recursion" not in (out.out + out.err).lower()


def test_a_chain_at_the_bound_round_trips_and_deploys():
    manifest = chain_manifest(MAX_DEPTH - 1)
    expression = manifest.elasticity_rules[0].trigger.expression
    assert expression.depth == MAX_DEPTH
    assert manifest_from_text(manifest_to_text(manifest)) == manifest
    assert manifest_from_xml(manifest_to_xml(manifest)) == manifest
    env = Environment()
    veem = VEEM(env)
    veem.add_host(Host(env, "h0", cpu_cores=8, memory_mb=16384))
    service = ServiceManager(env, veem).deploy(manifest, service_id="deep")
    env.run(until=service.deployment)
    assert [r.name for r in service.interpreter.rules] == ["up"]
    assert expression.evaluate(service.interpreter.bindings) == 1.0
    with pytest.raises(ExpressionError, match="deeper than"):
        chain_manifest(MAX_DEPTH)


def test_a_rule_built_in_code_past_the_bound_still_compiles_if_it_can():
    """Trees built in code skip the parser: compile takes what Python can
    take, and only turns its limits into a typed error."""
    assert chain_tree(150).compile()(lambda name: None) == 1.0
