"""Tests for adaptive monitoring-rate control (§5.2 'Adaptability')."""

import pytest

from repro.monitoring.adaptive import HIGH, LOW, AdaptiveRateController
from repro.monitoring.distribution import MulticastChannel
from repro.monitoring.measurements import AttributeType, ProbeAttribute
from repro.monitoring.probes import DataSource, Probe
from repro.sim.kernel import Environment


def make_probe(name, qname, rate):
    return Probe(
        name=name, qualified_name=qname,
        attributes=[ProbeAttribute("v", AttributeType.INTEGER)],
        collector=lambda: (1,), data_rate_s=rate,
    )


def setup(env, budget=50.0, **controller_kw):
    net = MulticastChannel(env)
    ds = DataSource(env, "ds", "svc", net)
    controller = AdaptiveRateController(
        env, net, budget_bytes_per_s=budget, check_period_s=60,
        **controller_kw)
    return net, ds, controller


def test_validation():
    env = Environment()
    net = MulticastChannel(env)
    with pytest.raises(ValueError):
        AdaptiveRateController(env, net, budget_bytes_per_s=0)
    with pytest.raises(ValueError):
        AdaptiveRateController(env, net, check_period_s=0)
    with pytest.raises(ValueError):
        AdaptiveRateController(env, net, throttle_factor=1.0)
    with pytest.raises(ValueError):
        AdaptiveRateController(env, net, restore_fraction=1.5)


def test_manage_unknown_probe_rejected():
    env = Environment()
    net, ds, controller = setup(env)
    with pytest.raises(KeyError):
        controller.manage(ds, "ghost")


def test_over_budget_probe_is_throttled():
    env = Environment()
    net, ds, controller = setup(env, budget=10.0)  # tiny budget
    ds.add_probe(make_probe("chatty", "uk.ucl.a.b", rate=1.0))
    controller.manage_all(ds)
    controller.start()
    env.run(until=121)
    assert controller.throttle_events >= 1
    assert "chatty" in controller.throttled_probes
    # The probe now runs at the stretched period.
    assert ds.probes["chatty"].data_rate_s == pytest.approx(4.0)
    rec = controller.trace.last(kind="probe.throttled")
    assert rec.details["probe"] == "chatty"


def test_low_priority_throttled_before_high():
    env = Environment()
    net, ds, controller = setup(env, budget=10.0)
    ds.add_probe(make_probe("critical", "uk.ucl.crit.kpi", rate=1.0))
    ds.add_probe(make_probe("debugging", "uk.ucl.debug.kpi", rate=1.0))
    controller.manage(ds, "critical", priority=HIGH)
    controller.manage(ds, "debugging", priority=LOW)
    controller.start()
    env.run(until=61)
    assert controller.throttled_probes == ["debugging"]
    assert ds.probes["critical"].data_rate_s == 1.0


def test_restore_when_traffic_subsides():
    env = Environment()
    net, ds, controller = setup(env, budget=10.0)
    probe = ds.add_probe(make_probe("chatty", "uk.ucl.a.b", rate=1.0))
    controller.manage_all(ds)
    controller.start()
    env.run(until=61)
    assert controller.throttled_probes == ["chatty"]
    # Turn the probe off entirely: traffic collapses → restore.
    probe.turn_off()
    env.run(until=241)
    assert controller.throttled_probes == []
    assert ds.probes["chatty"].data_rate_s == 1.0
    assert controller.restore_events >= 1


def test_within_budget_probe_untouched():
    env = Environment()
    net, ds, controller = setup(env, budget=1e9)
    ds.add_probe(make_probe("calm", "uk.ucl.a.b", rate=30.0))
    controller.manage_all(ds)
    controller.start()
    env.run(until=301)
    assert controller.throttle_events == 0
    assert ds.probes["calm"].data_rate_s == 30.0


def test_hysteresis_prevents_flapping():
    """Traffic hovering between restore and budget thresholds must neither
    throttle nor restore."""
    env = Environment()
    net, ds, controller = setup(env, budget=1000.0, restore_fraction=0.01)
    ds.add_probe(make_probe("steady", "uk.ucl.a.b", rate=1.0))
    controller.manage_all(ds)
    controller.start()
    env.run(until=301)
    # ~40-50 B/s: below budget, above 1% of budget → no action ever.
    assert controller.throttle_events == 0
    assert controller.restore_events == 0


def test_stop_halts_control():
    env = Environment()
    net, ds, controller = setup(env, budget=10.0)
    ds.add_probe(make_probe("chatty", "uk.ucl.a.b", rate=1.0))
    controller.manage_all(ds)
    controller.start()
    controller.stop()
    env.run(until=300)
    assert controller.throttle_events == 0
