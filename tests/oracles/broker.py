"""The per-packet broker: the oracle for routed delivery.

:class:`ReferenceBroker` routes the way the broker did before the route
cache and lazy decode: every packet is fully decoded, then every
subscription is scanned in registration order with a per-packet
``fnmatch`` on its qualified-name pattern. The routing differential
suite asserts :class:`~repro.monitoring.distribution.PubSubBroker`, which
scans once per routing key and serves later packets from its route
cache, delivers the same callbacks and charges the same bytes;
``benchmarks/test_bench_micro.py`` measures the cached fan-out against it.
"""

from __future__ import annotations

import fnmatch

from repro.monitoring.codec import decode_measurement
from repro.monitoring.distribution import PubSubBroker

__all__ = ["ReferenceBroker"]


class ReferenceBroker(PubSubBroker):
    """A :class:`PubSubBroker` that ignores its route cache when
    delivering."""

    def _deliver(self, packet: bytes) -> None:
        # Unconditional full decode, then a linear scan with per-packet
        # fnmatch on every glob.
        measurement = decode_measurement(packet)
        self.packets_decoded += 1
        size = len(packet)
        for sub in self._subs:
            if (sub.service_id is not None
                    and measurement.service_id != sub.service_id):
                continue
            if (sub.qualified_name is not None and not fnmatch.fnmatchcase(
                    measurement.qualified_name, sub.qualified_name)):
                continue
            self.bytes_delivered += size
            sub.callback(measurement)
