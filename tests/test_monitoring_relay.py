"""Tests for the cross-domain monitoring relay (§5.2 'Federation')."""

import pytest

from repro.monitoring import (
    AttributeType,
    DataSource,
    MeasurementStore,
    MonitoringRelay,
    MulticastChannel,
    Probe,
    ProbeAttribute,
    PubSubBroker,
)
from repro.sim import Environment


def emit_probe(env, net, service="svc-1", qname="uk.ucl.remote.kpi",
               rate=10.0):
    ds = DataSource(env, "ds", service, net)
    ds.add_probe(Probe(
        name="p", qualified_name=qname,
        attributes=[ProbeAttribute("v", AttributeType.INTEGER)],
        collector=lambda: (7,), data_rate_s=rate))
    return ds


def test_relay_forwards_with_latency():
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    relay = MonitoringRelay(env, source=site_b, target=site_a,
                            wan_latency_s=0.5)
    local_store = MeasurementStore()
    local_store.subscribe_to(site_a)
    emit_probe(env, site_b)  # produced on the remote domain
    env.run(until=10.4)
    assert local_store.notifications == 0  # still in flight
    env.run(until=10.6)
    assert local_store.notifications == 1
    assert local_store.value("svc-1", "uk.ucl.remote.kpi") == 7
    assert relay.forwarded == 1


def test_relay_filters_by_service():
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    MonitoringRelay(env, source=site_b, target=site_a,
                    service_ids={"managed-svc"})
    store = MeasurementStore()
    store.subscribe_to(site_a)
    emit_probe(env, site_b, service="managed-svc", qname="a.b")
    emit_probe(env, site_b, service="other-svc", qname="c.d")
    env.run(until=15)
    assert store.value("managed-svc", "a.b") is not None
    assert store.value("other-svc", "c.d") is None


def test_bidirectional_bridge_suppresses_echo():
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    ab, ba = MonitoringRelay.bridge(env, site_a, site_b, wan_latency_s=0.1)
    store_a, store_b = MeasurementStore(), MeasurementStore()
    store_a.subscribe_to(site_a)
    store_b.subscribe_to(site_b)
    emit_probe(env, site_a, qname="a.b", rate=10)
    env.run(until=35)
    # Each of the 3 events seen exactly once per site — no ping-pong.
    assert store_a.notifications == 3
    assert store_b.notifications == 3
    assert ba.suppressed == 3
    assert ab.forwarded == 3


def test_relay_validation():
    env = Environment()
    net = MulticastChannel(env)
    with pytest.raises(ValueError):
        MonitoringRelay(env, source=net, target=net)
    other = MulticastChannel(env)
    with pytest.raises(ValueError):
        MonitoringRelay(env, source=net, target=other, wan_latency_s=-1)


def test_relay_stop():
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    relay = MonitoringRelay(env, source=site_b, target=site_a)
    store = MeasurementStore()
    store.subscribe_to(site_a)
    emit_probe(env, site_b)
    env.run(until=15)
    assert store.notifications == 1
    relay.stop()
    env.run(until=60)
    assert store.notifications == 1


def test_rule_engine_consumes_relayed_remote_kpis():
    """End to end: a component on a remote site drives rules at the managing
    site — 'any virtual resource which reside on another domain is monitored
    correctly'."""
    from repro.core.manifest import ElasticityRule
    from repro.core.service_manager import RuleInterpreter

    env = Environment()
    managing, remote = PubSubBroker(env), PubSubBroker(env)
    MonitoringRelay(env, source=remote, target=managing,
                    service_ids={"svc-1"}, wan_latency_s=0.3)

    calls = []
    interp = RuleInterpreter(env, "svc-1",
                             executor=lambda a, r: calls.append(env.now) or True)
    interp.install(ElasticityRule.from_text(
        "up", "@uk.ucl.remote.kpi > 4", "deployVM(x)",
        defaults={"uk.ucl.remote.kpi": 0}, cooldown_s=1e9))
    interp.subscribe_to(managing)
    interp.start()
    emit_probe(env, remote)  # publishes 7 every 10 s on the remote fabric
    env.run(until=30)
    assert len(calls) == 1
