"""Tests for the human-readable (HUTN-style) concrete syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.expressions import ExpressionError
from repro.core.manifest.hutn import (
    HutnSyntaxError,
    manifest_from_text,
    manifest_to_text,
)
from repro.core.manifest.ovf_xml import manifest_from_xml, manifest_to_xml
from repro.experiments.polymorph import TestbedConfig, polymorph_manifest
from tests.test_manifest_xml import paper_manifest


def test_paper_manifest_round_trip():
    m1 = paper_manifest()
    assert manifest_from_text(manifest_to_text(m1)) == m1


def test_sla_and_rules_round_trip():
    b = ManifestBuilder("svc")
    b.component("web", image_mb=500, initial=1, minimum=1, maximum=4,
                customisation={"db host": 'quoted "value"',
                               "path": "a\\b"})
    b.kpi("LB", "web", "app.sessions", default=0)
    b.rule("up", "(@app.sessions > 100) && (mean(@app.sessions, 60) > 50)",
           ["deployVM(web)", "notify()"], time_constraint_ms=2500,
           cooldown_s=42)
    b.slo("fast", "@app.sessions < 10000", evaluation_period_s=15,
          target_compliance=0.99, assessment_window_s=900,
          penalty_per_breach=12.5)
    m1 = b.build()
    m2 = manifest_from_text(manifest_to_text(m1))
    assert m2 == m1
    rule = m2.elasticity_rules[0]
    assert rule.cooldown_s == 42
    assert len(rule.actions) == 2
    assert m2.sla.objective("fast").penalty_per_breach == 12.5


def test_largest_literals_round_trip_and_overflow_is_refused():
    b = ManifestBuilder("svc")
    b.component("web", image_mb=500, initial=1, minimum=1, maximum=4)
    b.kpi("LB", "web", "q.size", default=0)
    with pytest.raises(ExpressionError, match="1e999"):
        b.rule("huge", "@q.size > 1e999", "deployVM(web)")
    b.rule("large", "(@q.size > 1e308) || (mean(@q.size, 1e308) > 1)",
           "deployVM(web)")
    m1 = b.build()
    assert manifest_from_text(manifest_to_text(m1)) == m1


def test_text_and_xml_syntaxes_describe_same_model():
    """Two concrete syntaxes, one abstract syntax — the §4.2 point."""
    m = paper_manifest()
    via_text = manifest_from_text(manifest_to_text(m))
    via_xml = manifest_from_xml(manifest_to_xml(m))
    assert via_text == via_xml == m


def test_comments_and_blank_lines_ignored():
    text = """
# service definition
service demo {    # trailing comment

  file f at "http://x/f" size 10
  disk d from f
  system a {
    # hardware
    cpu 2
    memory 512
    disks d
    instances 1..1 initial 1
  }
}
"""
    m = manifest_from_text(text)
    assert m.service_name == "demo"
    assert m.system("a").hardware.cpu == 2


def test_not_replicable_and_nowait():
    text = """
service demo {
  file f at "http://x/f" size 10
  disk d from f
  system ci {
    cpu 1
    memory 512
    disks d
    instances 1..1 initial 1
    not-replicable
  }
  startup {
    ci order 0 nowait
  }
}
"""
    m = manifest_from_text(text)
    assert m.system("ci").replicable is False
    assert m.startup[0].wait_for_guest is False


def test_site_placement_forms():
    text = """
service demo {
  file f at "http://x/f" size 10
  disk d from f
  system a {
    cpu 1
    memory 512
    disks d
    instances 1..1 initial 1
  }
  placement {
    site a favour eu-west avoid offshore trusted
    site * avoid bad-site
  }
}
"""
    m = manifest_from_text(text)
    sp1, sp2 = m.placement.site_placements
    assert sp1.system_id == "a"
    assert sp1.favour_sites == ("eu-west",)
    assert sp1.avoid_sites == ("offshore",)
    assert sp1.require_trusted
    assert sp2.system_id is None
    assert sp2.avoid_sites == ("bad-site",)


EVALUATION_TEXT = manifest_to_text(polymorph_manifest(TestbedConfig()))


def _action_line_emptied(rule):
    """The paper's manifest with ``rule``'s ``do`` line blanked, and the
    error it must raise, at the rule's closing brace."""
    lines = EVALUATION_TEXT.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.strip().startswith(f"rule {rule} "))
    do = next(i for i in range(header, len(lines))
              if lines[i].strip().startswith("do "))
    assert lines[do + 1].strip() == "}"
    lines[do] = ""
    return pytest.param(
        "\n".join(lines),
        f"line {do + 2}: rule {rule}: at least one action required",
        id=f"{rule}-without-action")


@pytest.mark.parametrize("text, match", [
    ("network x {", "expected 'service"),
    ("service s {\n  bogus thing\n}", "unknown declaration"),
    ("service s {\n  file f size 10\n}", "expected 'file"),
    ("service s {\n  system a {\n    warp 9\n  }\n}",
     "unknown system attribute"),
    ("service s {\n  rule r within 100 {\n    do deployVM(x)\n  }\n}",
     "lacks a 'when'"),
    ("service s {\n  slo q period 1 target 0.9 window 10 penalty 1 {\n  }\n}",
     "lacks a 'must'"),
    ("service s {\n", "unexpected end of input"),
    ("service s {\n  system a\n}", "expected '{'"),
    ("service s {\n  system a {\n    cpu\n  }\n}",
     "line 3: expected a value after 'cpu'"),
    ("service s {\n  system a {\n    memory\n  }\n}",
     "line 3: expected a value after 'memory'"),
    ("service s {\n  system a {\n    instances 1..3 initial x\n  }\n}",
     "line 3: expected 'instances"),
    ("service s {\n  system a {\n    instances 6..3 initial 5\n  }\n}",
     "line 3: need minimum <= initial <= maximum"),
    ("service s {\n  placement {\n    per-host-cap a nan\n  }\n}",
     "line 3: cannot convert float NaN to integer"),
    ("service s {\n  startup {\n    a order inf\n  }\n}",
     "line 3: cannot convert float infinity to integer"),
    ("service s {\n  rule r within 100 {\n    when @a.b > 1\n  }\n}",
     "line 4: rule r: at least one action required"),
    ("service s {\n  rule r within 0 {\n    when @a.b > 1\n"
     "    do deployVM(a)\n  }\n}",
     "line 5: time constraint must be positive"),
    ("service s {\n  application app {\n    component C on a {\n"
     "      kpi a.b bogus every 30\n    }\n  }\n}",
     "line 4: unknown KPI type 'bogus'"),
    _action_line_emptied("AdjustClusterSizeUp"),
    _action_line_emptied("AdjustClusterSizeDown"),
    _action_line_emptied("BootstrapCluster"),
])
def test_malformed_text_rejected(text, match):
    with pytest.raises(HutnSyntaxError, match=match):
        manifest_from_text(text)


def test_every_line_truncation_raises_only_typed_errors():
    """Cut each line of the paper's manifest after each of its tokens: the
    text either still parses or fails with the front end's own error (or
    a condition's ExpressionError), never the model's bare ValueError."""
    lines = EVALUATION_TEXT.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for k in range(len(tokens)):
            cut = lines[:i] + [" ".join(tokens[:k])] + lines[i + 1:]
            try:
                manifest_from_text("\n".join(cut))
            except (HutnSyntaxError, ExpressionError):
                pass


@given(
    seed=st.integers(0, 10_000),
    n_components=st.integers(1, 4),
    n_networks=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_generated_manifest_text_round_trip(seed, n_components, n_networks,
                                            data):
    b = ManifestBuilder(f"svc-{seed}")
    networks = [f"net{i}" for i in range(n_networks)]
    for net in networks:
        b.network(net, public=data.draw(st.booleans()),
                  description=data.draw(st.sampled_from(
                      ["", "plain", 'with "quotes"', "back\\slash"])))
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
                data.draw(st.sampled_from(["k1", "key two", 'k"3'])):
                data.draw(st.sampled_from(["v", "v v", '"v"', "${ip.x.y}"]))
                for _ in range(data.draw(st.integers(0, 2)))
            },
        )
    m1 = b.build(validate=False)
    m2 = manifest_from_text(manifest_to_text(m1))
    assert m2 == m1
