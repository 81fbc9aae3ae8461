"""Differential tests: indexed broker routing vs the reference linear scan.

The PubSubBroker's indexed mode (exact-topic dict + compiled globs + route
cache) must be observationally identical to the seed's O(subscriptions)
linear scan, kept as ``tests.oracles.broker.ReferenceBroker``. These
tests drive both with identical randomized subscribe/unsubscribe/publish
traffic and assert identical callback sequences and byte accounting. The
multicast channel shares the route cache; its byte accounting is checked
against a model that charges every member.
"""

import random

import pytest

from repro.monitoring import (
    Measurement,
    MulticastChannel,
    PubSubBroker,
    encode_measurement,
)
from repro.sim import Environment
from tests.oracles.broker import ReferenceBroker

QNAMES = [
    "uk.ucl.condor.schedd.queuesize",
    "uk.ucl.condor.exec.load",
    "uk.ucl.web.sessions",
    "com.sap.dispatcher.sessions",
    "com.sap.dispatcher.latency",
    "org.example.probe.raw",
]

GLOBS = [
    "uk.ucl.*",
    "uk.ucl.condor.*",
    "*.sessions",
    "com.sap.dispatcher.?atency",
    "uk.ucl.condor.[se]*",
    "*",
]

SERVICES = ["svc-1", "svc-2", "svc-3"]


def _recorder(log, tag):
    def callback(m):
        log.append((tag, m.service_id, m.qualified_name, m.seqno))
    return callback


def _random_filters(rng):
    service_id = rng.choice(SERVICES + [None, None])
    kind = rng.random()
    if kind < 0.4:
        qualified_name = rng.choice(QNAMES)
    elif kind < 0.7:
        qualified_name = rng.choice(GLOBS)
    else:
        qualified_name = None
    return service_id, qualified_name


def _random_measurement(rng, k):
    return Measurement(
        qualified_name=rng.choice(QNAMES),
        service_id=rng.choice(SERVICES),
        probe_id=f"probe-{rng.randrange(8) + 1}",
        timestamp=float(k),
        values=(k, rng.random(), "state"),
        seqno=k,
    )


def _run_traffic(seed, indexed, reference, *, n_ops=400):
    rng = random.Random(seed)
    log_i, log_r = [], []
    live = []  # (tag, sub_indexed, sub_reference)
    tag = 0
    for k in range(n_ops):
        op = rng.random()
        if op < 0.2:
            service_id, qualified_name = _random_filters(rng)
            live.append((
                tag,
                indexed.subscribe(_recorder(log_i, tag),
                                  service_id=service_id,
                                  qualified_name=qualified_name),
                reference.subscribe(_recorder(log_r, tag),
                                    service_id=service_id,
                                    qualified_name=qualified_name),
            ))
            tag += 1
        elif op < 0.3 and live:
            _, sub_i, sub_r = live.pop(rng.randrange(len(live)))
            # exercise both teardown spellings
            if rng.random() < 0.5:
                indexed.unsubscribe(sub_i)
                reference.unsubscribe(sub_r)
            else:
                sub_i.cancel()
                sub_r.cancel()
        else:
            m = _random_measurement(rng, k)
            indexed.publish(m)
            reference.publish(m)
    return log_i, log_r


@pytest.mark.parametrize("seed", range(8))
def test_indexed_routing_matches_reference(seed):
    indexed = PubSubBroker(Environment())
    reference = ReferenceBroker(Environment())
    log_i, log_r = _run_traffic(seed, indexed, reference)
    assert log_i == log_r
    assert indexed.bytes_published == reference.bytes_published
    assert indexed.bytes_delivered == reference.bytes_delivered
    assert indexed.packets_published == reference.packets_published
    # lazy decode never decodes more than the reference's always-decode
    assert indexed.packets_decoded <= reference.packets_decoded


@pytest.mark.parametrize("seed", range(4))
def test_multicast_matches_reference_broker_callbacks(seed):
    """A MulticastChannel's *callback* sequence equals the broker's (same
    filters, same traffic) even though its byte accounting differs — the
    lazy-decode refactor must not change who sees what."""
    multicast = MulticastChannel(Environment())
    reference = ReferenceBroker(Environment())
    log_m, log_r = _run_traffic(seed, multicast, reference, n_ops=250)
    assert log_m == log_r
    # multicast pushes every packet to every member at the network level
    assert multicast.bytes_delivered >= reference.bytes_delivered


@pytest.mark.parametrize("seed", range(6))
def test_multicast_bytes_charge_every_member_at_publish(seed):
    """Under random churn, including members that cancel others from their
    callback, each packet costs its size once per member subscribed when it
    is published, whether or not the member's filter matches: the route
    cache changes what is scanned, not what is charged."""
    env = Environment()
    multicast = MulticastChannel(env)
    rng = random.Random(seed)
    live = []
    charged = 0

    def cancel_another(m):
        if live and rng.random() < 0.3:
            live.pop(rng.randrange(len(live))).cancel()

    for k in range(400):
        op = rng.random()
        if op < 0.2:
            service_id, qualified_name = _random_filters(rng)
            callback = (cancel_another if rng.random() < 0.2
                        else (lambda m: None))
            live.append(multicast.subscribe(callback, service_id=service_id,
                                            qualified_name=qualified_name))
        elif op < 0.3 and live:
            live.pop(rng.randrange(len(live))).cancel()
        else:
            m = _random_measurement(rng, k)
            packet = encode_measurement(m)
            charged += len(packet) * len(live)
            multicast.publish(m, packet=packet)
        assert multicast.subscription_count == len(live)
    assert multicast.bytes_delivered == charged
    assert multicast.route_cache_hits > 0 and multicast.route_cache_misses > 0


def _check_route_cache_counters(net):
    net.subscribe(lambda m: None, service_id="svc-1",
                  qualified_name=QNAMES[0])
    m = Measurement(QNAMES[0], "svc-1", "p-1", 0.0, (1,))
    net.publish(m)
    assert (net.route_cache_misses, net.route_cache_hits) == (1, 0)
    net.publish(m)
    assert (net.route_cache_misses, net.route_cache_hits) == (1, 1)
    # subscription churn invalidates the cache
    sub = net.subscribe(lambda m: None, qualified_name="uk.ucl.*")
    net.publish(m)
    assert (net.route_cache_misses, net.route_cache_hits) == (2, 1)
    net.unsubscribe(sub)
    net.publish(m)
    assert (net.route_cache_misses, net.route_cache_hits) == (3, 1)
    # the registry sees the counters in the fabric family
    views = {name: value for name, _labels, _kind, value
             in net.env.metrics.collect()
             if name.startswith("monitoring.fabric.route_cache")}
    assert views == {"monitoring.fabric.route_cache_hits": 1,
                     "monitoring.fabric.route_cache_misses": 3}


def test_route_cache_counters_account_hits_and_misses():
    _check_route_cache_counters(PubSubBroker(Environment()))


def test_multicast_route_cache_counters_account_hits_and_misses():
    _check_route_cache_counters(MulticastChannel(Environment()))
