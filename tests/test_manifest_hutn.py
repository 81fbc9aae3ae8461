"""Tests for the human-readable (HUTN-style) concrete syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest import (
    HutnSyntaxError,
    ManifestBuilder,
    manifest_from_text,
    manifest_from_xml,
    manifest_to_text,
    manifest_to_xml,
)
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
])
def test_malformed_text_rejected(text, match):
    with pytest.raises(HutnSyntaxError, match=match):
        manifest_from_text(text)


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
