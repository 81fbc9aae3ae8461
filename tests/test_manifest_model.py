"""Tests for the manifest abstract syntax, ADL, rules and validation."""

import pytest

from repro.core.manifest.adl import (
    ApplicationDescription,
    ComponentDescription,
    KeyPerformanceIndicator,
)
from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.elasticity import (
    ElasticityRule,
    Trigger,
    VEEMOperation,
    parse_action,
)
from repro.core.manifest.expressions import parse_expression
from repro.core.manifest.model import (
    AntiColocationConstraint,
    ColocationConstraint,
    FileReference,
    InstanceBounds,
    LogicalNetwork,
    StartupEntry,
    VirtualDisk,
    VirtualHardware,
    VirtualSystem,
)
from repro.core.manifest.validation import (
    ManifestValidationError,
    Severity,
    validate_manifest,
)


# ---------------------------------------------------------------------------
# ADL
# ---------------------------------------------------------------------------

def test_kpi_validation():
    with pytest.raises(ValueError):
        KeyPerformanceIndicator("notdotted")
    with pytest.raises(ValueError):
        KeyPerformanceIndicator("a.b", frequency_s=0)
    with pytest.raises(ValueError):
        KeyPerformanceIndicator("a.b", category="Nonsense")


def test_kpi_type_names_round_trip():
    for name in ("int", "long", "float", "double", "bool", "string"):
        kpi = KeyPerformanceIndicator(
            "a.b", type=KeyPerformanceIndicator.type_from_name(name))
        assert kpi.type_name == name
    with pytest.raises(ValueError):
        KeyPerformanceIndicator.type_from_name("quaternion")


def test_component_description_lookups():
    kpi = KeyPerformanceIndicator("uk.ucl.x.y")
    comp = ComponentDescription("GridMgmt", "GM", (kpi,))
    assert comp.kpi("uk.ucl.x.y") is kpi
    with pytest.raises(KeyError):
        comp.kpi("uk.ucl.other.z")
    with pytest.raises(ValueError):
        ComponentDescription("", "GM")
    with pytest.raises(ValueError):
        ComponentDescription("c", "")
    with pytest.raises(ValueError):
        ComponentDescription("c", "GM", (kpi, kpi))


def test_application_description_global_kpi_names():
    k = KeyPerformanceIndicator("a.b")
    with pytest.raises(ValueError, match="global"):
        ApplicationDescription("app", (
            ComponentDescription("c1", "v1", (k,)),
            ComponentDescription("c2", "v2", (k,)),
        ))


def test_application_kpi_defaults():
    app = ApplicationDescription("app", (
        ComponentDescription("c1", "v1", (
            KeyPerformanceIndicator("a.b", default=3.0),
            KeyPerformanceIndicator("a.c"),
        )),
    ))
    assert app.kpi_defaults() == {"a.b": 3.0}
    assert app.declared_names() == {"a.b", "a.c"}
    assert app.kpi("a.b").default == 3.0
    assert app.component("c1").name == "c1"
    with pytest.raises(KeyError):
        app.component("nope")
    with pytest.raises(KeyError):
        app.kpi("z.z")


# ---------------------------------------------------------------------------
# Elasticity actions / rules
# ---------------------------------------------------------------------------

def test_parse_action_forms():
    a = parse_action("deployVM(uk.ucl.condor.exec.ref)")
    assert a.operation is VEEMOperation.DEPLOY_VM
    assert a.component_ref == "uk.ucl.condor.exec.ref"
    b = parse_action("migrateVM(web, site-b)")
    assert b.operation is VEEMOperation.MIGRATE_VM
    assert b.arguments == ("site-b",)
    c = parse_action("notify()")
    assert c.component_ref == ""


def test_parse_action_errors():
    from repro.core.manifest.expressions import ExpressionError
    with pytest.raises(ExpressionError):
        parse_action("deployVM")          # no parens
    with pytest.raises(ExpressionError):
        parse_action("explodeVM(x)")      # unknown op


def test_action_unparse_round_trip():
    for text in ("deployVM(exec.ref)", "undeployVM(exec)",
                 "reconfigureVM(db, cpu=2)"):
        assert parse_action(parse_action(text).unparse()).unparse() == \
            parse_action(text).unparse()


def test_rule_requires_action_and_name():
    trig = Trigger(parse_expression("1 > 0"))
    with pytest.raises(ValueError):
        ElasticityRule("", trig, (parse_action("notify()"),))
    with pytest.raises(ValueError):
        ElasticityRule("r", trig, ())


def test_trigger_time_constraint_validation():
    with pytest.raises(ValueError):
        Trigger(parse_expression("1 > 0"), time_constraint_ms=0)
    assert Trigger(parse_expression("1 > 0"),
                   time_constraint_ms=5000).time_constraint_s == 5.0


def test_rule_cooldown_defaults_to_time_constraint():
    rule = ElasticityRule.from_text("r", "1 > 0", "notify()",
                                    time_constraint_ms=2000)
    assert rule.effective_cooldown_s == 2.0
    explicit = ElasticityRule.from_text("r", "1 > 0", "notify()",
                                        cooldown_s=60)
    assert explicit.effective_cooldown_s == 60


# ---------------------------------------------------------------------------
# Model validation basics
# ---------------------------------------------------------------------------

def test_instance_bounds_validation():
    with pytest.raises(ValueError):
        InstanceBounds(initial=5, minimum=0, maximum=4)
    with pytest.raises(ValueError):
        InstanceBounds(initial=0, minimum=1, maximum=4)
    with pytest.raises(ValueError):
        InstanceBounds(minimum=-1)
    assert InstanceBounds(initial=2, minimum=0, maximum=16).elastic
    assert not InstanceBounds().elastic


def test_non_replicable_system_cannot_be_elastic():
    with pytest.raises(ValueError, match="non-replicable"):
        VirtualSystem(
            system_id="CI", replicable=False,
            instances=InstanceBounds(initial=1, minimum=1, maximum=4),
        )


def test_basic_model_validation():
    with pytest.raises(ValueError):
        FileReference("", "href", 10)
    with pytest.raises(ValueError):
        FileReference("f", "href", 0)
    with pytest.raises(ValueError):
        VirtualDisk("", "f")
    with pytest.raises(ValueError):
        LogicalNetwork("")
    with pytest.raises(ValueError):
        VirtualHardware(cpu=0)
    with pytest.raises(ValueError):
        StartupEntry("x", order=-1)
    with pytest.raises(ValueError):
        ColocationConstraint("a", "a")
    with pytest.raises(ValueError):
        AntiColocationConstraint("a", "a")


def test_startup_order_tiers():
    b = ManifestBuilder("svc")
    b.component("db", image_mb=100, startup_order=0)
    b.component("ci", image_mb=100, startup_order=0)
    b.component("web", image_mb=100, startup_order=1)
    b.component("extra", image_mb=100)  # unlisted
    manifest = b.build()
    assert manifest.startup_order() == [["db", "ci"], ["web"], ["extra"]]


def test_image_href_resolution():
    b = ManifestBuilder("svc")
    b.component("db", image_mb=100, image_href="http://x/db.img")
    manifest = b.build()
    assert manifest.image_href(manifest.system("db")) == "http://x/db.img"


def test_manifest_lookups_raise_keyerror():
    manifest = ManifestBuilder("svc").component("a", image_mb=1).build()
    with pytest.raises(KeyError):
        manifest.system("nope")
    with pytest.raises(KeyError):
        manifest.disk("nope")
    with pytest.raises(KeyError):
        manifest.file("nope")
    with pytest.raises(KeyError):
        manifest.network("nope")


# ---------------------------------------------------------------------------
# Well-formedness rules
# ---------------------------------------------------------------------------

def error_codes(manifest):
    return {i.code for i in validate_manifest(manifest)
            if i.severity is Severity.ERROR}


def warning_codes(manifest):
    return {i.code for i in validate_manifest(manifest)
            if i.severity is Severity.WARNING}


def test_valid_manifest_has_no_errors():
    b = ManifestBuilder("svc")
    b.network("net")
    b.component("GM", image_mb=100, networks=["net"])
    b.component("exec", image_mb=100, initial=1, minimum=0, maximum=8)
    b.kpi("GridMgmt", "GM", "uk.ucl.q.size", default=0)
    b.kpi("Cluster", "exec", "uk.ucl.n.size", default=0)
    b.rule("up", "(@uk.ucl.q.size > 4) && (@uk.ucl.n.size < 8)",
           "deployVM(exec)")
    b.rule("down", "(@uk.ucl.q.size == 0) && (@uk.ucl.n.size > 0)",
           "undeployVM(exec)")
    assert error_codes(b.build()) == set()


def test_dangling_disk_ref_detected():
    from repro.core.manifest.model import ServiceManifest
    manifest = ServiceManifest(
        service_name="svc",
        disks=(VirtualDisk("d1", "missing-file"),),
        virtual_systems=(VirtualSystem("s1", disk_refs=("d1",)),),
    )
    assert "disk-fileref" in error_codes(manifest)


def test_system_without_disk_detected():
    from repro.core.manifest.model import ServiceManifest
    manifest = ServiceManifest(
        service_name="svc",
        virtual_systems=(VirtualSystem("s1"),),
    )
    assert "system-no-disk" in error_codes(manifest)


def test_unknown_network_ref_detected():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1, networks=["ghost"])
    manifest = b.build(validate=False)
    assert "system-netref" in error_codes(manifest)


def test_startup_unknown_and_duplicate():
    from repro.core.manifest.model import ServiceManifest
    manifest = ServiceManifest(
        service_name="svc",
        startup=(StartupEntry("ghost", 0), StartupEntry("ghost", 1)),
    )
    codes = error_codes(manifest)
    assert "startup-unknown" in codes
    assert "startup-dup" in codes


def test_contradictory_colocation_detected():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1).component("b", image_mb=1)
    b.colocate("a", "b").anti_colocate("a", "b")
    assert "coloc-contradiction" in error_codes(b.build(validate=False))


def test_contradictory_site_placement_detected():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1)
    b.site_placement("a", favour=["x"], avoid=["x"])
    assert "site-contradiction" in error_codes(b.build(validate=False))


def test_rule_with_undeclared_kpi_detected():
    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=1, minimum=0, maximum=4)
    b.rule("up", "@un.declared > 1", "deployVM(exec)")
    assert "rule-undeclared-kpi" in error_codes(b.build(validate=False))


def test_deploy_action_on_fixed_component_detected():
    b = ManifestBuilder("svc")
    b.component("db", image_mb=1)  # fixed bounds
    b.kpi("C", "db", "a.b", default=0)
    b.rule("up", "@a.b > 1", "deployVM(db)")
    assert "action-not-elastic" in error_codes(b.build(validate=False))


def test_action_unknown_target_detected():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1)
    b.kpi("C", "a", "a.b", default=0)
    b.rule("up", "@a.b > 1", "deployVM(ghost)")
    assert "action-target" in error_codes(b.build(validate=False))


def test_dotted_ref_style_resolves():
    """The paper's uk.ucl.condor.exec.ref style must resolve to 'exec'."""
    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=0, minimum=0, maximum=4)
    b.kpi("C", "exec", "a.b", default=0)
    b.rule("up", "@a.b > 1", "deployVM(uk.ucl.condor.exec.ref)")
    assert error_codes(b.build(validate=False)) == set()


def test_unused_kpi_warns():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1)
    b.kpi("C", "a", "a.b")
    assert "kpi-unused" in warning_codes(b.build(validate=False))


def test_elastic_without_rule_warns():
    b = ManifestBuilder("svc")
    b.component("exec", image_mb=1, initial=1, minimum=0, maximum=4)
    assert "elastic-undriven" in warning_codes(b.build(validate=False))


def test_adl_binding_to_unknown_system_detected():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1)
    b.kpi("C", "ghost-system", "a.b")
    assert "adl-binding" in error_codes(b.build(validate=False))


def test_ensure_valid_raises_with_issue_list():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1, networks=["ghost"])
    with pytest.raises(ManifestValidationError) as exc:
        b.build()
    assert any(i.code == "system-netref" for i in exc.value.issues)


def test_builder_validate_false_skips():
    b = ManifestBuilder("svc")
    b.component("a", image_mb=1, networks=["ghost"])
    manifest = b.build(validate=False)  # no raise
    assert manifest.service_name == "svc"
