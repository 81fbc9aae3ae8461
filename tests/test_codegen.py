"""Tests for the §4.2.3 code generation: generated source must run."""

import pytest

from repro.core.codegen import generate_agent_stub, generate_validation_script
from repro.core.manifest.builder import ManifestBuilder
from repro.monitoring.consumers import MeasurementStore
from repro.monitoring.distribution import MulticastChannel
from repro.sim.kernel import Environment


def manifest():
    b = ManifestBuilder("gen-svc")
    b.component("GM", image_mb=100)
    b.component("exec", image_mb=100, initial=0, minimum=0, maximum=4)
    b.application("gen-app")
    b.kpi("GridMgmtService", "GM", "uk.ucl.condor.schedd.queuesize",
          frequency_s=30, units="jobs", default=0)
    b.kpi("GridMgmtService", "GM", "uk.ucl.condor.schedd.class-ad.count",
          frequency_s=60, type_name="long", default=0)
    b.kpi("Cluster", "exec", "uk.ucl.condor.exec.instances.size",
          frequency_s=30, default=0)
    b.rule("up", "@uk.ucl.condor.schedd.queuesize > 4", "deployVM(exec)")
    return b.build()


def exec_module(source):
    namespace = {}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace


# ---------------------------------------------------------------------------
# Agent stub generation
# ---------------------------------------------------------------------------

def test_stub_source_is_valid_python():
    source = generate_agent_stub(manifest(), "GridMgmtService")
    module = exec_module(source)
    assert "GridMgmtServiceAgentStub" in module


def test_stub_mentions_every_kpi():
    source = generate_agent_stub(manifest(), "GridMgmtService")
    assert "uk.ucl.condor.schedd.queuesize" in source
    assert "uk.ucl.condor.schedd.class-ad.count" in source
    assert "collect_queuesize" in source
    # hyphen in the last segment becomes a safe identifier
    assert "collect_count" in source


def test_stub_unimplemented_probe_raises():
    source = generate_agent_stub(manifest(), "GridMgmtService")
    module = exec_module(source)
    env = Environment()
    stub = module["GridMgmtServiceAgentStub"](
        env, "svc-1", MulticastChannel(env), start=False)
    with pytest.raises(NotImplementedError):
        stub.collect_queuesize()


def test_stub_publishes_after_override():
    """The provider's only job: override collect_*; everything else works."""
    source = generate_agent_stub(manifest(), "GridMgmtService")
    module = exec_module(source)
    env = Environment()
    network = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(network)

    class Wired(module["GridMgmtServiceAgentStub"]):
        def collect_queuesize(self):
            return 7

        def collect_count(self):
            return 2**40

    Wired(env, "svc-1", network)
    env.run(until=61)
    assert store.value("svc-1", "uk.ucl.condor.schedd.queuesize") == 7
    assert store.value("svc-1",
                       "uk.ucl.condor.schedd.class-ad.count") == 2**40


def test_stub_respects_declared_frequencies():
    source = generate_agent_stub(manifest(), "GridMgmtService")
    module = exec_module(source)
    env = Environment()
    network = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(network)

    class Wired(module["GridMgmtServiceAgentStub"]):
        def collect_queuesize(self):
            return 1

        def collect_count(self):
            return 1

    Wired(env, "svc-1", network)
    env.run(until=125)
    # queuesize every 30 s → 4 events; count every 60 s → 2 events.
    assert store.notifications == 6


def test_stub_stop():
    source = generate_agent_stub(manifest(), "GridMgmtService")
    module = exec_module(source)
    env = Environment()
    network = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(network)

    class Wired(module["GridMgmtServiceAgentStub"]):
        def collect_queuesize(self):
            return 1

        def collect_count(self):
            return 1

    stub = Wired(env, "svc-1", network)
    stub.stop()
    env.run(until=300)
    assert store.notifications == 0


def test_stub_unknown_component_rejected():
    with pytest.raises(KeyError):
        generate_agent_stub(manifest(), "NoSuchComponent")
    b = ManifestBuilder("bare")
    b.component("a", image_mb=1)
    with pytest.raises(ValueError):
        generate_agent_stub(b.build(), "a")


# ---------------------------------------------------------------------------
# Validation-script generation
# ---------------------------------------------------------------------------

def test_validation_script_round_trips_manifest():
    source = generate_validation_script(manifest(), "svc-9")
    module = exec_module(source)
    assert module["MANIFEST"].service_name == "gen-svc"
    assert module["SERVICE_ID"] == "svc-9"


def test_validation_script_attach_and_report():
    from repro.monitoring.measurements import Measurement
    from repro.sim.tracing import TraceLog, TraceRecord

    source = generate_validation_script(manifest(), "svc-9")
    module = exec_module(source)
    env = Environment()
    network = MulticastChannel(env)
    instruments = module["attach"](network)

    # Feed one enabling event and a timely action record.
    network.publish(Measurement("uk.ucl.condor.schedd.queuesize",
                                "svc-9", "p", 0.0, (50,)))
    trace = TraceLog(env)
    trace.records.append(TraceRecord(
        1.0, "rule-engine", "elasticity.action",
        {"rule": "up", "service": "svc-9", "operation": "deployVM",
         "component_ref": "exec"}))
    text = module["report"](instruments, trace)
    assert "uk.ucl.condor.schedd.queuesize: 1 events" in text
    assert "violations: 0" in text
    assert "'enforced': 1" in text


# ---------------------------------------------------------------------------
# Manifest text that is hostile to Python source
# ---------------------------------------------------------------------------

#: each one breaks a literal or docstring it is pasted into unescaped
HOSTILE = ['svc"""1', "svc'''1", "svc\\new\\1", "svc\n1"]
#: all four at once
ALL_HOSTILE = "".join(HOSTILE)


def _backslash_href_manifest():
    """The paper manifest with a Windows-style exec image href."""
    from repro.core.manifest.ovf_xml import manifest_from_xml, manifest_to_xml
    from tests.test_manifest_xml import paper_manifest

    xml = manifest_to_xml(paper_manifest()).replace(
        "http://sm.internal/images/exec", "file:///C:\\new\\images\\exec")
    return manifest_from_xml(xml)


def test_validation_script_keeps_backslashes_in_the_manifest():
    from repro.core.manifest.ovf_xml import manifest_to_xml

    parsed = _backslash_href_manifest()
    module = exec_module(generate_validation_script(parsed, "svc-1"))
    assert module["MANIFEST_XML"] == manifest_to_xml(parsed)
    generated = module["MANIFEST"]
    assert (generated.image_href(generated.system("exec"))
            == "file:///C:\\new\\images\\exec")


@pytest.mark.parametrize("text", HOSTILE)
def test_validation_script_survives_hostile_names(text):
    from repro.core.manifest.ovf_xml import manifest_to_xml

    b = ManifestBuilder(text)
    b.component("a", image_mb=1)
    built = b.build()
    source = generate_validation_script(built, text)
    module = exec_module(source)
    assert module["MANIFEST_XML"] == manifest_to_xml(built)
    assert module["SERVICE_ID"] == text
    assert module["MANIFEST"].service_name == text
    assert text in module["__doc__"]


def test_cli_validator_for_a_quoted_service_id(tmp_path, capsys):
    from repro.__main__ import main
    from repro.core.manifest.ovf_xml import manifest_to_xml
    from tests.test_manifest_xml import paper_manifest

    path = tmp_path / "service.xml"
    path.write_text(manifest_to_xml(paper_manifest()))
    assert main(["generate-validator", str(path), 'svc"""1']) == 0
    module = exec_module(capsys.readouterr().out)
    assert module["SERVICE_ID"] == 'svc"""1'


def test_stub_survives_hostile_names():
    text = ALL_HOSTILE
    b = ManifestBuilder(text)
    b.component("a", image_mb=1)
    b.application("app")
    b.kpi(text, "a", "app.a.load", frequency_s=30, units=text, default=0)
    source = generate_agent_stub(b.build(), text)
    module = exec_module(source)
    assert text in module["__doc__"]
    stub_class = next(v for k, v in module.items() if k.endswith("AgentStub"))
    assert text in stub_class.collect_load.__doc__
    env = Environment()
    stub = stub_class(env, "svc-1", MulticastChannel(env), start=False)
    with pytest.raises(NotImplementedError, match="app.a.load"):
        stub.collect_load()


def test_stub_gives_kpis_sharing_a_last_segment_their_own_collectors():
    b = ManifestBuilder("shared")
    b.component("web", image_mb=1)
    b.application("app")
    for name in ("app.web.load", "app.db.load", "app.web.count"):
        b.kpi("Tier", "web", name, frequency_s=30, default=0)
    source = generate_agent_stub(b.build(), "Tier")
    module = exec_module(source)
    stub_class = module["TierAgentStub"]
    # a unique last segment keeps its short name
    assert hasattr(stub_class, "collect_count")

    class Wired(stub_class):
        def collect_app_web_load(self):
            return 1

        def collect_app_db_load(self):
            return 2

        def collect_count(self):
            return 3

    env = Environment()
    network = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(network)
    Wired(env, "svc-1", network)
    env.run(until=31)
    assert store.value("svc-1", "app.web.load") == 1
    assert store.value("svc-1", "app.db.load") == 2
    assert store.value("svc-1", "app.web.count") == 3


def test_stub_for_a_component_named_with_a_leading_digit():
    b = ManifestBuilder("tiers")
    b.component("a", image_mb=1)
    b.application("app")
    b.kpi("3tier", "a", "app.a.load", frequency_s=30, default=0)
    module = exec_module(generate_agent_stub(b.build(), "3tier"))
    assert "_3tierAgentStub" in module
