"""Tests for the SAP motivating-example application model."""

import pytest

from repro.apps import (
    SAPConfig,
    SessionWorkload,
    WebDispatcher,
    deploy_sap,
    drive_sessions,
    sap_manifest,
)
from repro.cloud import Host, HypervisorTimings, ImageRepository, VEEM
from repro.core.manifest import ensure_valid
from repro.core.service_manager import ServiceManager
from repro.sim import Environment


def make_stack(env, n_hosts=4):
    repo = ImageRepository(bandwidth_mb_per_s=100)
    veem = VEEM(env, repository=repo)
    timings = HypervisorTimings(define_s=2, boot_s=30, shutdown_s=5)
    for i in range(n_hosts):
        veem.add_host(Host(env, f"h{i}", cpu_cores=8, memory_mb=16384,
                           timings=timings))
    return ServiceManager(env, veem)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_sap_manifest_valid_and_constrained():
    manifest = sap_manifest()
    ensure_valid(manifest)
    ci = manifest.system("CentralInstance")
    assert not ci.replicable
    assert ci.instances.maximum == 1
    coloc = manifest.placement.colocations
    assert any(c.system_id == "CentralInstance" and c.with_system_id == "DBMS"
               for c in coloc)
    di = manifest.system("DialogInstance")
    assert di.instances.elastic
    # Startup order: DBMS → CI → dispatcher → DIs.
    assert manifest.startup_order() == [
        ["DBMS"], ["CentralInstance"], ["WebDispatcher"], ["DialogInstance"]]


def test_sap_config_validation():
    with pytest.raises(ValueError):
        SAPConfig(sessions_per_di=0)
    with pytest.raises(ValueError):
        SAPConfig(min_dialog_instances=5, max_dialog_instances=2)


# ---------------------------------------------------------------------------
# WebDispatcher session model
# ---------------------------------------------------------------------------

def test_dispatcher_sessions_and_capacity():
    env = Environment()
    d = WebDispatcher(env, SAPConfig(sessions_per_di=10))
    assert d.capacity == 0 and d.active_sessions == 0
    d.register_di("di-1")
    assert d.capacity == 10
    for _ in range(10):
        assert d.open_session()
    assert d.active_sessions == d.capacity
    # Hard rejection only at 2× capacity.
    for _ in range(10):
        assert d.open_session()
    assert not d.open_session()
    assert d.rejected_sessions == 1
    d.close_session()
    assert d.active_sessions == 19


def test_dispatcher_zero_capacity_rejects():
    env = Environment()
    d = WebDispatcher(env, SAPConfig())
    assert not d.open_session()
    assert d.rejected_sessions == 1


def test_dispatcher_registration_bookkeeping():
    env = Environment()
    d = WebDispatcher(env, SAPConfig())
    d.register_di("a")
    with pytest.raises(ValueError):
        d.register_di("a")
    d.deregister_di("a")
    assert d.dialog_instances == []
    with pytest.raises(ValueError):
        d.close_session()


# ---------------------------------------------------------------------------
# Session workload
# ---------------------------------------------------------------------------

def test_session_workload_validation():
    with pytest.raises(ValueError):
        SessionWorkload(phases=())
    with pytest.raises(ValueError):
        SessionWorkload(phases=((0, 1),))
    with pytest.raises(ValueError):
        SessionWorkload(session_duration_s=0)
    assert SessionWorkload().total_duration_s == 7200.0


# ---------------------------------------------------------------------------
# Full deployment behaviour
# ---------------------------------------------------------------------------

def test_sap_deploys_with_colocation():
    env = Environment()
    sm = make_stack(env)
    dep = deploy_sap(env, sm)
    env.run(until=dep.service.deployment)
    lifecycle = dep.service.lifecycle
    ci = lifecycle.components["CentralInstance"].vms[0]
    dbms = lifecycle.components["DBMS"].vms[0]
    assert ci.host is dbms.host
    # CI got the DBMS address injected (MDL6).
    assert ci.descriptor.customisation["db_host"] == \
        dbms.ip_addresses["internal"]
    assert dep.service.check_constraints().ok


def test_sap_scales_with_session_load():
    env = Environment()
    sm = make_stack(env)
    dep = deploy_sap(env, sm)
    env.run(until=dep.service.deployment)
    workload = SessionWorkload(
        phases=((600.0, 0.02), (2400.0, 0.6), (600.0, 0.02)),
        session_duration_s=600.0,
    )
    env.process(drive_sessions(env, dep.dispatcher, workload))
    env.run(until=env.now + workload.total_duration_s + 1200)
    peak_di = dep.dispatcher.series["dialog_instances"].maximum()
    assert peak_di > 1                      # scaled up under load
    assert dep.dialog_instance_count == 1   # scaled back down after
    assert dep.service.check_constraints().ok


def test_sap_central_instance_never_replicated():
    env = Environment()
    sm = make_stack(env)
    dep = deploy_sap(env, sm)
    env.run(until=dep.service.deployment)
    from repro.core.service_manager import ScaleError
    with pytest.raises(ScaleError):
        dep.service.lifecycle.scale_up("CentralInstance")


def test_sap_di_bounds_respected_under_extreme_load():
    env = Environment()
    sm = make_stack(env, n_hosts=8)
    cfg = SAPConfig(max_dialog_instances=4)
    dep = deploy_sap(env, sm, cfg)
    env.run(until=dep.service.deployment)
    workload = SessionWorkload(
        phases=((3600.0, 2.0),), session_duration_s=1800.0)
    env.process(drive_sessions(env, dep.dispatcher, workload))
    env.run(until=env.now + 3600)
    assert dep.dialog_instance_count <= 4
    assert dep.dispatcher.series["dialog_instances"].maximum() <= 4
