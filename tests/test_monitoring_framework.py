"""Integration tests: probes, data sources, distribution, consumers, agents,
information model."""

import pytest

from repro.monitoring.agents import AggregatingKPI, MonitoringAgent
from repro.monitoring.consumers import MeasurementJournal, MeasurementStore
from repro.monitoring.distribution import MulticastChannel, PubSubBroker
from repro.monitoring.infomodel import InformationModel
from repro.monitoring.measurements import (
    AttributeType,
    Measurement,
    ProbeAttribute,
)
from repro.monitoring.probes import Probe, DataSource
from repro.sim.kernel import Environment


def make_probe(value_fn=lambda: (5,), rate=30.0, qname="uk.ucl.test.kpi"):
    return Probe(
        name="test-probe",
        qualified_name=qname,
        attributes=[ProbeAttribute("value", AttributeType.INTEGER, "units")],
        collector=value_fn,
        data_rate_s=rate,
    )


# ---------------------------------------------------------------------------
# Probe / DataSource mechanics
# ---------------------------------------------------------------------------

def test_probe_periodic_emission():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=30))
    env.run(until=95)
    # Emissions at t=30, 60, 90.
    assert store.notifications == 3
    assert store.value("svc-1", "uk.ucl.test.kpi") == 5


def test_probe_collector_values_change():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    counter = {"n": 0}

    def collect():
        counter["n"] += 1
        return (counter["n"],)

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=35)
    values = [m.value for m in journal.stream("svc-1", "uk.ucl.test.kpi")]
    assert values == [1, 2, 3]
    seqnos = [m.seqno for m in journal.stream("svc-1", "uk.ucl.test.kpi")]
    assert seqnos == [1, 2, 3]


def test_probe_returning_none_skips_interval():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    calls = {"n": 0}

    def collect():
        calls["n"] += 1
        return (calls["n"],) if calls["n"] % 2 == 0 else None

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=45)
    assert calls["n"] == 4
    assert store.notifications == 2


def test_probe_off_suppresses_emission():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    probe = ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    assert store.notifications == 2
    probe.turn_off()
    env.run(until=55)
    assert store.notifications == 2
    probe.turn_on()
    env.run(until=65)
    assert store.notifications == 3


def test_stop_probe_halts_loop():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    ds.stop_probe("test-probe")
    env.run(until=100)
    assert store.notifications == 2
    # Restart works.
    ds.start_probe("test-probe")
    env.run(until=115)
    assert store.notifications == 3


def test_set_data_rate_changes_period():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=25)
    assert store.notifications == 2  # t=10, 20
    ds.set_data_rate("test-probe", 5)
    # The in-flight interval (started at t=20) still uses the old rate and
    # fires at t=30; subsequent intervals use the new 5 s period.
    env.run(until=41)
    assert store.notifications == 5  # + t=30, 35, 40
    with pytest.raises(ValueError):
        ds.set_data_rate("test-probe", 0)


def test_emit_now_bypasses_schedule():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    probe = ds.add_probe(make_probe(rate=1000), start=False)
    m = ds.emit_now("test-probe")
    assert m is not None and store.notifications == 1
    probe.turn_off()
    assert ds.emit_now("test-probe") is None


def test_duplicate_probe_name_rejected():
    env = Environment()
    ds = DataSource(env, "ds", "svc-1", MulticastChannel(env))
    ds.add_probe(make_probe())
    with pytest.raises(ValueError):
        ds.add_probe(make_probe())


def test_probe_identity_is_checked_once_at_binding(monkeypatch):
    """A probe's qualified name, service id and probe id never change, so
    the data source checks them when it binds the probe, not per sample."""
    from repro.monitoring import probes

    checked = []
    check = probes._check_identity

    def counting(*identity):
        checked.append(identity)
        check(*identity)

    monkeypatch.setattr(probes, "_check_identity", counting)
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net)
    probe = ds.add_probe(make_probe(rate=10))
    assert checked == [("uk.ucl.test.kpi", "svc-1", probe.probe_id)]
    env.run(until=55)
    ds.emit_now(probe.name)
    assert store.notifications == 6
    assert len(checked) == 1


def test_probe_validation():
    with pytest.raises(ValueError):
        make_probe(rate=0)
    with pytest.raises(ValueError):
        Probe(name="", qualified_name="a.b", attributes=[], collector=lambda: (1,))


# ---------------------------------------------------------------------------
# Distribution frameworks
# ---------------------------------------------------------------------------

def _emit(env, net, qname="uk.ucl.a.b", service="svc-1"):
    ds = DataSource(env, "ds", service, net)
    ds.add_probe(make_probe(qname=qname, rate=10))
    return ds


def test_multicast_delivers_to_all_members():
    env = Environment()
    net = MulticastChannel(env)
    s1, s2 = MeasurementStore(), MeasurementStore()
    s1.subscribe_to(net)
    s2.subscribe_to(net)
    _emit(env, net)
    env.run(until=15)
    assert s1.notifications == s2.notifications == 1


def test_multicast_filters_at_consumer_but_counts_delivery():
    env = Environment()
    net = MulticastChannel(env)
    matched, unmatched = MeasurementStore(), MeasurementStore()
    matched.subscribe_to(net, qualified_name="uk.ucl.*")
    unmatched.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert matched.notifications == 1
    assert unmatched.notifications == 0
    # Both members received the packet at the network level.
    assert net.bytes_delivered == 2 * net.bytes_published


def test_pubsub_only_delivers_matches():
    env = Environment()
    net = PubSubBroker(env)
    matched, unmatched = MeasurementStore(), MeasurementStore()
    matched.subscribe_to(net, qualified_name="uk.ucl.*")
    unmatched.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert matched.notifications == 1
    assert unmatched.notifications == 0
    assert net.bytes_delivered == net.bytes_published  # one match only


def test_service_id_filtering():
    env = Environment()
    net = PubSubBroker(env)
    mine, other = MeasurementStore(), MeasurementStore()
    mine.subscribe_to(net, service_id="svc-1")
    other.subscribe_to(net, service_id="svc-2")
    _emit(env, net, service="svc-1")
    env.run(until=15)
    assert mine.notifications == 1
    assert other.notifications == 0


# ---------------------------------------------------------------------------
# Unsubscribe / subscription lifecycle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [MulticastChannel, PubSubBroker])
def test_unsubscribe_stops_delivery(factory):
    env = Environment()
    net = factory(env)
    store = MeasurementStore()
    sub = store.subscribe_to(net)
    assert net.subscription_count == 1
    ds = _emit(env, net)
    env.run(until=15)
    assert store.notifications == 1
    net.unsubscribe(sub)
    assert net.subscription_count == 0
    assert not sub.active
    env.run(until=45)
    assert store.notifications == 1  # no deliveries after teardown
    net.unsubscribe(sub)  # idempotent


def test_subscription_cancel_shorthand():
    env = Environment()
    net = PubSubBroker(env)
    store = MeasurementStore()
    sub = store.subscribe_to(net)
    sub.cancel()
    sub.cancel()
    assert net.subscription_count == 0


def test_unsubscribe_foreign_subscription_rejected():
    env = Environment()
    net_a, net_b = PubSubBroker(env), PubSubBroker(env)
    sub = net_a.subscribe(lambda m: None)
    with pytest.raises(ValueError):
        net_b.unsubscribe(sub)


FABRICS = pytest.mark.parametrize("fabric", [PubSubBroker, MulticastChannel],
                                  ids=["broker", "multicast"])


@FABRICS
def test_route_cache_invalidated_by_subscription_churn(fabric):
    env = Environment()
    net = fabric(env)
    first, late = MeasurementStore(), MeasurementStore()
    first_sub = first.subscribe_to(net, qualified_name="uk.ucl.a.b")
    _emit(env, net)
    env.run(until=15)
    assert first.notifications == 1
    # the route for this header is now cached; a later subscriber must
    # still be seen by the next packet
    late.subscribe_to(net, qualified_name="uk.ucl.*")
    env.run(until=25)
    assert first.notifications == 2
    assert late.notifications == 1
    # and a cancelled one must not be
    first_sub.cancel()
    env.run(until=35)
    assert first.notifications == 2
    assert late.notifications == 2
    assert (net.route_cache_misses, net.route_cache_hits) == (3, 0)


@FABRICS
def test_callback_churn_mid_packet_applies_from_the_next_packet(fabric):
    """A packet's route is a snapshot taken at delivery: a member cancelled
    by an earlier callback of the same packet is not called, and a member
    added mid-packet first sees the next packet."""
    env = Environment()
    net = fabric(env)
    log = []
    added = []

    def churn(m):
        log.append(("churn", m.seqno))
        if m.seqno == 1:
            doomed.cancel()
            added.append(net.subscribe(lambda m: log.append(("new", m.seqno)),
                                       qualified_name="uk.ucl.a.b"))

    net.subscribe(churn, service_id="svc-1")
    doomed = net.subscribe(lambda m: log.append(("doomed", m.seqno)),
                           qualified_name="uk.ucl.a.b")
    net.subscribe(lambda m: log.append(("last", m.seqno)))
    for seqno in (1, 2):
        net.publish(Measurement("uk.ucl.a.b", "svc-1", "p-1", float(seqno),
                                (seqno,), seqno=seqno))
    assert log == [("churn", 1), ("last", 1),
                   ("churn", 2), ("last", 2), ("new", 2)]
    assert not doomed.active and added[0].active
    assert net.subscription_count == 3


def test_relay_stop_releases_subscription():
    from repro.monitoring.relay import MonitoringRelay
    env = Environment()
    site_a, site_b = MulticastChannel(env), MulticastChannel(env)
    relay = MonitoringRelay(env, source=site_a, target=site_b)
    assert site_a.subscription_count == 1
    relay.stop()
    assert site_a.subscription_count == 0


# ---------------------------------------------------------------------------
# Lazy decode and delivery batching
# ---------------------------------------------------------------------------

def test_broker_skips_decode_when_nobody_matches():
    env = Environment()
    net = PubSubBroker(env)
    other = MeasurementStore()
    other.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)  # publishes uk.ucl.a.b
    env.run(until=15)
    assert other.notifications == 0
    assert net.packets_published == 1
    assert net.packets_decoded == 0  # routed away without materialising
    assert net.bytes_delivered == 0


def test_broker_decodes_once_for_many_subscribers():
    env = Environment()
    net = PubSubBroker(env)
    stores = [MeasurementStore() for _ in range(5)]
    for s in stores:
        s.subscribe_to(net, qualified_name="uk.ucl.*")
    _emit(env, net)
    env.run(until=15)
    assert all(s.notifications == 1 for s in stores)
    assert net.packets_decoded == 1  # shared by all five consumers


def test_multicast_counts_bytes_without_decoding_unmatched():
    env = Environment()
    net = MulticastChannel(env)
    other = MeasurementStore()
    other.subscribe_to(net, qualified_name="com.sap.*")
    _emit(env, net)
    env.run(until=15)
    assert other.notifications == 0
    assert net.bytes_delivered == net.bytes_published  # traversed the wire
    assert net.packets_decoded == 0                    # but never decoded


def test_publish_many_batches_delivery():
    env = Environment()
    net = PubSubBroker(env)
    seen = []
    net.subscribe(lambda m: seen.append(m.seqno))
    ms = [Measurement("uk.ucl.a.b", "svc-1", "p-1", 0.0, (i,), seqno=i)
          for i in range(10)]
    net.publish_many(ms)
    # synchronous: every packet has arrived, in order, before the clock moves
    assert net.packets_published == 10
    assert seen == list(range(10))
    assert env.now == 0.0


def test_publish_many_packet_alignment_checked():
    env = Environment()
    net = PubSubBroker(env)
    m = Measurement("uk.ucl.a.b", "svc-1", "p-1", 0.0, (1,))
    with pytest.raises(ValueError):
        net.publish_many([m], packets=[])


def test_probe_emission_packets_byte_identical_to_reference_codec():
    from repro.monitoring.codec import decode_measurement, encode_measurement

    env = Environment()
    captured = []

    class CapturingBroker(PubSubBroker):
        def publish(self, measurement, *, packet=None):
            captured.append((measurement, packet))
            super().publish(measurement, packet=packet)

    net = CapturingBroker(env)
    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(rate=10))
    env.run(until=35)
    assert len(captured) == 3
    for measurement, packet in captured:
        assert packet == encode_measurement(measurement)
        assert decode_measurement(packet) == measurement


# ---------------------------------------------------------------------------
# MeasurementStore / Journal semantics
# ---------------------------------------------------------------------------

def test_store_latest_value_semantics():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    counter = {"n": 0}

    def collect():
        counter["n"] += 10
        return (counter["n"],)

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(collect, rate=10))
    env.run(until=35)
    assert store.value("svc-1", "uk.ucl.test.kpi") == 30
    assert store.value("svc-1", "uk.ucl.missing.kpi", default=-1) == -1
    assert store.age("svc-1", "uk.ucl.test.kpi", env.now) == pytest.approx(5.0)
    assert store.age("svc-1", "uk.ucl.missing.kpi", env.now) is None


def test_journal_window_statistics():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    values = iter([4, 8, 6, 2])

    ds = DataSource(env, "ds", "svc-1", net)
    ds.add_probe(make_probe(lambda: (next(values),), rate=10))
    env.run(until=45)
    kpi = ("svc-1", "uk.ucl.test.kpi")
    assert journal.aggregate(*kpi, 0, 45, "mean") == 5.0
    assert journal.aggregate(*kpi, 0, 25, "max") == 8
    assert journal.aggregate(*kpi, 15, 45, "min") == 2
    assert journal.aggregate(*kpi, 0, 45, "count") == 4.0
    assert journal.aggregate(*kpi, 100, 200, "mean") is None
    assert len(journal) == 4


def _journal(values, service="svc", kpi="a.b"):
    """A journal holding one sample of ``values[i]`` at t = 10 * (i + 1)."""
    journal = MeasurementJournal()
    for i, value in enumerate(values):
        journal.notify(Measurement(kpi, service, "p", 10.0 * (i + 1),
                                   (value,), seqno=i))
    return journal


@pytest.mark.parametrize("since, until, op, expected", [
    # samples: 4 @ t=10, 8 @ t=20, 6 @ t=30, 2 @ t=40
    (20, 35, "mean", 7.0),      # lower edge on a sample: included
    (20, 35, "min", 6.0),
    (20, 35, "count", 2.0),
    (0, 20, "max", 8.0),        # upper edge on a sample: included
    (0, 20, "mean", 6.0),
    (0, 20, "count", 2.0),
    (20, 20, "count", 1.0),     # a zero-width window on a sample holds it
    (11, 19, "mean", None),     # empty window
    (11, 19, "min", None),
    (11, 19, "max", None),
    (11, 19, "count", 0.0),
])
def test_journal_aggregate_window_edges(since, until, op, expected):
    journal = _journal([4, 8, 6, 2])
    assert journal.aggregate("svc", "a.b", since, until, op) == expected
    # another service's or KPI's stream is never read
    assert journal.aggregate("other", "a.b", since, until, op) == (
        0.0 if op == "count" else None)


def test_journal_aggregate_count_does_not_read_values():
    journal = _journal(["up", "down", "up"])
    assert journal.aggregate("svc", "a.b", 0, 100, "count") == 3.0
    with pytest.raises(ValueError):
        journal.aggregate("svc", "a.b", 0, 100, "mean")


def test_journal_aggregate_rejects_unknown_operation():
    with pytest.raises(ValueError, match="median"):
        _journal([1]).aggregate("svc", "a.b", 0, 100, "median")


# ---------------------------------------------------------------------------
# Information model integration
# ---------------------------------------------------------------------------

def test_infomodel_registration_and_elaboration():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe(lambda: (7,), rate=10))
    env.run(until=15)

    assert im.ring.get(f"/probe/{probe.probe_id}/name") == "test-probe"
    assert im.ring.get(f"/probe/{probe.probe_id}/datasource") \
        == ds.datasource_id
    state = im.probe_state(probe.probe_id)
    assert state["on"] is True and state["active"] is True
    assert state["datarate"] == 10

    (m,) = list(journal)
    elaborated = im.elaborate(m)
    assert len(elaborated) == 1
    assert elaborated[0].name == "value"
    assert elaborated[0].units == "units"
    assert elaborated[0].value == 7


def test_infomodel_state_tracks_probe_lifecycle():
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe())
    ds.stop_probe("test-probe")
    assert im.probe_state(probe.probe_id)["active"] is False


def test_infomodel_elaborate_unknown_probe_raises():
    from repro.monitoring.measurements import Measurement
    im = InformationModel()
    m = Measurement("a.b", "svc", "ghost-probe", 0.0, (1,))
    with pytest.raises(KeyError):
        im.elaborate(m)


def test_infomodel_elaborate_value_count_mismatch():
    from repro.monitoring.measurements import Measurement
    env = Environment()
    net = MulticastChannel(env)
    im = InformationModel()
    ds = DataSource(env, "ds", "svc-1", net, infomodel=im)
    probe = ds.add_probe(make_probe())
    bad = Measurement("a.b", "svc", probe.probe_id, 0.0, (1, 2, 3))
    with pytest.raises(ValueError):
        im.elaborate(bad)


# ---------------------------------------------------------------------------
# Monitoring agents
# ---------------------------------------------------------------------------

def test_agent_exposes_kpi_under_qualified_name():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    queue = {"size": 12}
    agent = MonitoringAgent(env, service_id="svc-1", component="GridMgmt",
                            network=net)
    agent.expose("uk.ucl.condor.schedd.queuesize",
                 lambda: queue["size"], frequency_s=30, units="jobs")
    env.run(until=35)
    assert store.value("svc-1", "uk.ucl.condor.schedd.queuesize") == 12
    queue["size"] = 20
    env.run(until=65)
    assert store.value("svc-1", "uk.ucl.condor.schedd.queuesize") == 20


def test_agent_coerces_to_declared_type():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.count", lambda: 7.9, frequency_s=10,
                 type=AttributeType.INTEGER)
    env.run(until=15)
    assert store.value("svc", "a.b.count") == 7


def test_agent_aggregation_smooths_fluctuations():
    env = Environment()
    net = MulticastChannel(env)
    journal = MeasurementJournal()
    journal.subscribe_to(net)
    values = iter([0, 100, 0, 100])
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.load", lambda: next(values), frequency_s=10,
                 type=AttributeType.DOUBLE, aggregate="mean", window=4)
    env.run(until=45)
    published = [m.value for m in journal.stream("svc", "a.b.load")]
    assert published == [0.0, 50.0, pytest.approx(100 / 3), 50.0]


def test_agent_stop_halts_all_probes():
    env = Environment()
    net = MulticastChannel(env)
    store = MeasurementStore()
    store.subscribe_to(net)
    agent = MonitoringAgent(env, service_id="svc", component="c", network=net)
    agent.expose("a.b.x", lambda: 1, frequency_s=10)
    agent.expose("a.b.y", lambda: 2, frequency_s=10)
    env.run(until=15)
    assert store.notifications == 2
    agent.stop()
    env.run(until=100)
    assert store.notifications == 2


def test_aggregating_kpi_operations():
    raw = iter([1, 5, 3])
    agg = AggregatingKPI(lambda: next(raw), operation="max", window=2)
    assert agg() == 1
    assert agg() == 5
    assert agg() == 5  # window holds (5, 3)
    with pytest.raises(ValueError):
        AggregatingKPI(lambda: 1, operation="median")
    with pytest.raises(ValueError):
        AggregatingKPI(lambda: 1, window=0)


def test_aggregating_kpi_none_passthrough():
    agg = AggregatingKPI(lambda: None)
    assert agg() is None
