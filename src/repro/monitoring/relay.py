"""Cross-domain monitoring relay.

§5.2 requires "**Federation**: so that any virtual resource which reside on
another domain is monitored correctly." In a federated deployment each site
runs its own distribution framework; when a service's components are spread
across sites (or migrate to another domain), the managing site's consumers —
the rule engine above all — must still see the measurements produced there.

:class:`MonitoringRelay` bridges site-local frameworks: it subscribes to a
remote site's fabric (optionally filtered to the service ids the local
Service Manager actually manages), re-publishes matching measurements on the
local fabric after a WAN latency, and suppresses forwarding loops when two
relays bridge the same pair of sites in both directions.
"""

from __future__ import annotations

from typing import Optional

from ..sim.kernel import Environment
from .distribution import DistributionFramework
from .measurements import Measurement

__all__ = ["MonitoringRelay"]


class MonitoringRelay:
    """Forwards measurements from one distribution framework to another."""

    def __init__(self, env: Environment, *,
                 source: DistributionFramework,
                 target: DistributionFramework,
                 service_ids: Optional[set[str]] = None,
                 wan_latency_s: float = 0.2):
        if source is target:
            raise ValueError("relay source and target must differ")
        if wan_latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.source = source
        self.target = target
        #: forward only these services' streams; None forwards everything
        self.service_ids = set(service_ids) if service_ids is not None else None
        self.wan_latency_s = wan_latency_s
        #: (service id, qualified name, seqno, probe) of recently relayed
        #: events, to break forwarding loops between paired relays
        self._recently_forwarded: set[tuple] = set()
        self.forwarded = 0
        self.suppressed = 0
        self.enabled = True
        self._subscription = source.subscribe(self._on_measurement)

    # ------------------------------------------------------------------
    def _key(self, m: Measurement) -> tuple:
        return (m.service_id, m.qualified_name, m.probe_id, m.seqno)

    def mark_local(self, m: Measurement) -> None:
        """Tell this relay a measurement originated on *its own* target —
        its paired reverse relay calls this so echoes are suppressed."""
        self._recently_forwarded.add(self._key(m))

    @classmethod
    def bridge(cls, env: Environment, a: DistributionFramework,
               b: DistributionFramework, *,
               service_ids: Optional[set[str]] = None,
               wan_latency_s: float = 0.2
               ) -> tuple["MonitoringRelay", "MonitoringRelay"]:
        """Bidirectional bridge with loop suppression between two sites."""
        ab = cls(env, source=a, target=b, service_ids=service_ids,
                 wan_latency_s=wan_latency_s)
        ba = cls(env, source=b, target=a, service_ids=service_ids,
                 wan_latency_s=wan_latency_s)
        ab._pair = ba
        ba._pair = ab
        return ab, ba

    _pair: Optional["MonitoringRelay"] = None

    # ------------------------------------------------------------------
    def _on_measurement(self, m: Measurement) -> None:
        if not self.enabled:
            return
        if self.service_ids is not None and m.service_id not in self.service_ids:
            return
        key = self._key(m)
        if key in self._recently_forwarded:
            # This event just arrived over this very bridge: don't echo.
            self._recently_forwarded.discard(key)
            self.suppressed += 1
            return
        self.env.process(self._forward(m), name="monitoring-relay")

    def _forward(self, m: Measurement):
        yield self.env.timeout(self.wan_latency_s)
        if self._pair is not None:
            self._pair.mark_local(m)
        self.target.publish(m)
        self.forwarded += 1

    def stop(self) -> None:
        """Disable forwarding and release the source-side subscription so a
        retired relay no longer occupies the fabric's routing structures."""
        self.enabled = False
        self._subscription.cancel()
