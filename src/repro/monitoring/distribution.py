"""The measurement distribution framework.

§5.2.5: "We need a mechanism that allows for multiple submitters and multiple
receivers of data without having vast numbers of network connections ...
Solutions to this include IP multicast, Event Service Bus, or
publish/subscribe mechanism. In each of these, a producer of data only needs
to send one copy of a measurement onto the network, and each of the consumers
will be able to collect the same packet of data concurrently."

§5.2.1: "The collection of the data and the distribution of data are dealt
with by different elements of the monitoring system so that it is possible to
change the distribution framework without changing all the producers and
consumers" — hence the abstract :class:`DistributionFramework` with two
interchangeable implementations:

* :class:`MulticastChannel` — every subscriber sees every packet (IP
  multicast style); filtering happens at the consumer.
* :class:`PubSubBroker` — topic-based routing on (service id, qualified
  name); the network only delivers packets a consumer asked for.

Both carry *encoded* packets (bytes) to keep producers honest about the wire
format, and both account delivered volume so experiments can compare network
utilisation.

Data-plane fast path
--------------------
The fabric is the firehose feeding every elasticity decision, so the hot
path is engineered:

* **One stream cache** — a packet's identity prefix (magic through the
  probe id) is the same on every packet of one stream.
  :class:`DistributionFramework` finds where it ends from the three
  string-length words and looks its bytes up among the prefixes whose
  packet the strict decoder accepted; a hit yields the routing key and
  probe id with nothing re-parsed or re-validated, and only the tail is
  decoded. A miss takes the strict path below and, once the packet decodes,
  caches its prefix (one entry per probe identity).
* **One route cache** — the ``(service id, qualified name)`` key, from
  the stream cache or, for a new stream, from the routing fields
  (:func:`repro.monitoring.codec.peek_header`), is looked up in a route
  cache that fronts both fabrics. The cache holds the matched subscriptions
  in registration order and is cleared whenever the subscription set
  changes. A miss scans the subscriptions once for that key
  (:meth:`DistributionFramework._match`, glob patterns compiled once per
  subscription); a fabric says only how delivered bytes are charged
  (:meth:`DistributionFramework._charge`): the multicast channel charges
  every member, the broker the matched ones.
* **Lazy decode** — a full
  :class:`~repro.monitoring.measurements.Measurement` is materialised at
  most once per packet, shared by all matched consumers, and never for
  packets nobody wants (``packets_decoded`` counts the full decodes).

The seed's per-packet decode and scan is the differential-test oracle,
``ReferenceBroker`` in ``tests/oracles/broker.py``.

Delivery is synchronous: :meth:`DistributionFramework.publish` returns once
every matched consumer has run, so a consumer sees the publisher's ambient
trace span and can adopt it as its parent (DESIGN §12).

Subscriptions are first-class: :meth:`DistributionFramework.subscribe`
returns a :class:`Subscription` handle that
:meth:`DistributionFramework.unsubscribe` (or ``handle.cancel()``) removes —
consumers torn down on probe ``off`` or service undeploy no longer leak
routing state. A packet's route is a snapshot taken at delivery: a
subscription cancelled by an earlier callback of the same packet is not
called, and one added mid-packet first sees the next packet.
"""

from __future__ import annotations

import abc
import fnmatch
import re
import struct
from typing import Callable, Optional, Sequence

from ..sim.kernel import Environment
from .codec import (
    _decode_stream,
    _identity_prefix,
    _prefix_end,
    decode_measurement,
    encode_measurement,
    peek_header,
)
from .measurements import Measurement

__all__ = [
    "DistributionFramework",
    "MulticastChannel",
    "PubSubBroker",
    "Subscription",
]

#: A consumer callback receives the decoded measurement.
ConsumerCallback = Callable[[Measurement], None]

#: characters that make a qualified-name filter a glob pattern
_GLOB_RE = re.compile(r"[*?\[]")


class Subscription:
    """One registered consumer: filters + callback + compiled matcher.

    Returned by :meth:`DistributionFramework.subscribe`; hand it back to
    :meth:`DistributionFramework.unsubscribe` (or call :meth:`cancel`) to
    tear the consumer down. A glob ``qualified_name`` is compiled to a regex
    once, here, rather than re-parsed per packet.
    """

    __slots__ = ("framework", "callback", "service_id", "qualified_name",
                 "active", "_match")

    def __init__(self, framework: "DistributionFramework",
                 callback: ConsumerCallback,
                 service_id: Optional[str],
                 qualified_name: Optional[str]):
        self.framework = framework
        self.callback = callback
        self.service_id = service_id
        self.qualified_name = qualified_name
        self.active = True
        if qualified_name is not None and _GLOB_RE.search(qualified_name):
            self._match = re.compile(fnmatch.translate(qualified_name)).match
        else:
            self._match = None

    def matches(self, service_id: str, qualified_name: str) -> bool:
        """Whether a packet with this routing header passes the filters."""
        if self.service_id is not None and service_id != self.service_id:
            return False
        if self._match is not None:
            return self._match(qualified_name) is not None
        return (self.qualified_name is None
                or qualified_name == self.qualified_name)

    def cancel(self) -> None:
        """Unsubscribe from the owning framework (idempotent)."""
        if self.active:
            self.framework.unsubscribe(self)

    def __repr__(self) -> str:
        return (f"<Subscription service_id={self.service_id!r} "
                f"qualified_name={self.qualified_name!r} "
                f"{'active' if self.active else 'cancelled'}>")


class DistributionFramework(abc.ABC):
    """Producer/consumer fabric for measurement packets.

    Delivery is shared by every fabric: peek the routing header, look its
    ``(service id, qualified name)`` key up in the route cache, charge the
    delivered bytes, then decode the packet once and hand it to every
    matched subscription. A cache miss scans the subscriptions
    (:meth:`_match`); implementations supply :meth:`_charge` (the byte
    accounting).
    """

    def __init__(self, env: Environment):
        self.env = env
        #: delivered volume accounting (bytes that reached consumers)
        self.bytes_delivered = 0
        #: injected volume accounting (bytes sent by producers)
        self.bytes_published = 0
        self.packets_published = 0
        #: full Measurement decodes performed (lazy-decode observability:
        #: unmatched packets never increment this)
        self.packets_decoded = 0
        self._subs: list[Subscription] = []
        #: (service id, qualified name) -> matched subscriptions, in
        #: registration order; cleared on any subscribe/unsubscribe
        self._route_cache: dict[tuple[str, str], tuple[Subscription, ...]] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        #: identity prefix -> ((service id, qualified name), probe id) of
        #: every stream whose packet the strict decoder accepted here: one
        #: entry per distinct probe identity, never evicted
        self._streams: dict[bytes, tuple[tuple[str, str], str]] = {}
        # The counters above stay plain ints (the delivery loop is the
        # hottest path in the system); the unified registry reads them as
        # gauges when it collects (metric_rows), labelled apart from the
        # environment's other fabrics.
        self._fabric_label = f"fabric{next(env.ids('fabric'))}"
        env.metrics.add_source(self)

    def metric_rows(self):
        labels = {"fabric": self._fabric_label}
        for attr in ("bytes_published", "bytes_delivered",
                     "packets_published", "packets_decoded",
                     "route_cache_hits", "route_cache_misses"):
            yield f"monitoring.fabric.{attr}", labels, getattr(self, attr)

    # -- publishing ----------------------------------------------------------
    def publish(self, measurement: Measurement, *,
                packet: Optional[bytes] = None) -> None:
        """Encode and send one measurement into the fabric.

        Producers holding a :class:`~repro.monitoring.codec.PacketEncoder`
        may pass the pre-encoded ``packet`` (byte-identical to
        :func:`~repro.monitoring.codec.encode_measurement` output) to skip
        the redundant encode.
        """
        if packet is None:
            packet = encode_measurement(measurement)
        self.bytes_published += len(packet)
        self.packets_published += 1
        self._deliver(packet)

    def publish_many(self, measurements: Sequence[Measurement], *,
                     packets: Optional[Sequence[bytes]] = None) -> None:
        """Publish a batch, in order, one :meth:`publish` per measurement."""
        # Nothing in the package calls it; perfbench/ledger.py wraps it.
        if packets is None:
            for m in measurements:
                self.publish(m)
        else:
            if len(packets) != len(measurements):
                raise ValueError("packets must align with measurements")
            for m, p in zip(measurements, packets):
                self.publish(m, packet=p)

    # -- subscribing ---------------------------------------------------------
    def subscribe(self, callback: ConsumerCallback, *,
                  service_id: Optional[str] = None,
                  qualified_name: Optional[str] = None) -> Subscription:
        """Register a consumer and return its handle.

        ``None`` filters mean "everything"; the qualified name may be a glob
        pattern (``uk.ucl.condor.*``).
        """
        sub = Subscription(self, callback, service_id, qualified_name)
        self._subs.append(sub)
        self._route_cache.clear()
        return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a consumer; idempotent for already-cancelled handles."""
        if subscription.framework is not self:
            raise ValueError("subscription belongs to a different framework")
        if not subscription.active:
            return
        subscription.active = False
        self._subs.remove(subscription)
        self._route_cache.clear()

    @property
    def subscription_count(self) -> int:
        return len(self._subs)

    # -- delivery ------------------------------------------------------------
    def _deliver(self, packet: bytes) -> None:
        """Route an encoded packet to the consumers that asked for it."""
        try:
            end = _prefix_end(packet)
            stream = self._streams.get(packet[:end])
        except (struct.error, TypeError):  # too short, or not bytes
            stream = None
        if stream is None:
            # a new (or irregular) stream: the strict path
            header = peek_header(packet)
            key = (header.service_id, header.qualified_name)
        else:
            key = stream[0]
        route = self._route_cache.get(key)
        if route is None:
            self.route_cache_misses += 1
            route = self._route_cache[key] = self._match(*key)
        else:
            self.route_cache_hits += 1
        self.bytes_delivered += self._charge(len(packet), route)
        if not route:
            return  # nobody asked: the packet is never fully decoded
        if stream is None:
            measurement = decode_measurement(packet, header=header)
            # Accepted: remember its identity prefix, if it is the one the
            # encoder writes (zero padding), so the stream's later packets
            # skip the header parse and the identity checks.
            prefix = _identity_prefix(measurement.qualified_name,
                                      measurement.service_id,
                                      measurement.probe_id)
            if packet.startswith(prefix):
                self._streams[prefix] = (key, measurement.probe_id)
        else:
            measurement = _decode_stream(packet, end, key, stream[1])
        self.packets_decoded += 1
        for sub in route:
            # a callback may have cancelled a later member of this route
            if sub.active:
                sub.callback(measurement)

    def _match(self, service_id: str,
               qualified_name: str) -> tuple[Subscription, ...]:
        """The subscriptions a packet with this header reaches, in
        registration order (computed on a route-cache miss)."""
        return tuple(sub for sub in self._subs
                     if sub.matches(service_id, qualified_name))

    @abc.abstractmethod
    def _charge(self, size: int, route: tuple[Subscription, ...]) -> int:
        """Bytes a ``size``-byte packet delivered along ``route`` puts on
        the network."""


class MulticastChannel(DistributionFramework):
    """IP-multicast-style delivery: one packet, every subscriber sees it.

    Subscription filters are applied *at the consumer* after decode, as a
    host's kernel would after joining the multicast group — the whole packet
    still traverses the network to every member, which the byte accounting
    reflects. Which members' filters pass is answered once per routing key
    by a scan of the members, then served from the route cache; the packet
    body is only materialised (once) if at least one filter matches.
    """

    def _charge(self, size: int, route: tuple[Subscription, ...]) -> int:
        return size * len(self._subs)  # every member receives it


class PubSubBroker(DistributionFramework):
    """Topic-routed delivery: only matching subscribers receive the packet.

    A packet reaches the subscriptions whose filters pass, in registration
    order, and only those deliveries are charged. The differential tests
    assert it routes exactly as the seed's per-packet decode and scan with
    ``fnmatch`` (``tests/oracles/broker.py``).
    """

    def _charge(self, size: int, route: tuple[Subscription, ...]) -> int:
        return size * len(route)  # only matched deliveries
