"""Measurement consumers.

The Service Manager's rule interpreter is the paper's flagship consumer: the
OCL semantics (§4.2.2) require it to append incoming events to
``monitoringRecords`` and, at evaluation time, read *the latest value for the
monitoring record with a specific qualified name*, falling back to a KPI's
declared default when no record exists yet. :class:`MeasurementStore`
implements exactly that contract; :class:`MeasurementJournal` additionally
keeps full history for the generated validation instruments (§4.2.3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional

from .distribution import DistributionFramework, Subscription
from .measurements import Measurement

__all__ = ["MeasurementStore", "MeasurementJournal"]


class MeasurementStore:
    """Latest-value store keyed by (service id, qualified name).

    Implements the ``RuleInterpreter::notify`` / ``evaluate(QualifiedElement)``
    OCL contract: each notification is recorded; queries return the latest
    value for the qualified name, or the supplied default.
    """

    __slots__ = ("_latest", "notifications", "_listeners")

    def __init__(self) -> None:
        self._latest: dict[tuple[str, str], Measurement] = {}
        self.notifications = 0
        self._listeners: list[Callable[[Measurement], None]] = []

    def notify(self, measurement: Measurement) -> Optional[Measurement]:
        """Record an incoming monitoring event (OCL: append to records).

        Returns the sample it replaces as the latest of its stream, or
        ``None`` for the stream's first."""
        key = (measurement.service_id, measurement.qualified_name)
        latest = self._latest
        previous = latest.get(key)
        latest[key] = measurement
        self.notifications += 1
        for listener in self._listeners:
            listener(measurement)
        return previous

    def subscribe_to(self, network: DistributionFramework, *,
                     service_id: Optional[str] = None,
                     qualified_name: Optional[str] = None) -> Subscription:
        """Attach to a fabric; keep the returned handle to detach later."""
        return network.subscribe(self.notify, service_id=service_id,
                                 qualified_name=qualified_name)

    def add_listener(self, listener: Callable[[Measurement], None]) -> None:
        """Called on every notification — used to trigger rule evaluation."""
        self._listeners.append(listener)

    def latest(self, service_id: str, qualified_name: str
               ) -> Optional[Measurement]:
        return self._latest.get((service_id, qualified_name))

    def value(self, service_id: str, qualified_name: str,
              default: Any = None) -> Any:
        """OCL ``evaluate(qe: QualifiedElement)``: latest value or default."""
        m = self._latest.get((service_id, qualified_name))
        return m.value if m is not None else default

    def age(self, service_id: str, qualified_name: str,
            now: float) -> Optional[float]:
        """Seconds since the last event for this KPI, or None if never seen."""
        m = self._latest.get((service_id, qualified_name))
        return (now - m.timestamp) if m is not None else None

    def known_names(self, service_id: str) -> list[str]:
        return sorted(q for (s, q) in self._latest if s == service_id)


class MeasurementJournal:
    """Full-history consumer: every event kept, queryable by stream/time.

    Feeds the generated elasticity-validation instruments, which must replay
    "incoming monitoring events and [verify] where appropriate that suitable
    adjustment operations were invoked by matching entries and time frames in
    infrastructural logs" (§4.2.3).
    """

    __slots__ = ("_events", "_by_stream")

    def __init__(self) -> None:
        self._events: list[Measurement] = []
        self._by_stream: dict[tuple[str, str], list[Measurement]] = defaultdict(list)

    def notify(self, measurement: Measurement) -> None:
        self._events.append(measurement)
        key = (measurement.service_id, measurement.qualified_name)
        self._by_stream[key].append(measurement)

    def subscribe_to(self, network: DistributionFramework, *,
                     service_id: Optional[str] = None,
                     qualified_name: Optional[str] = None) -> Subscription:
        """Attach to a fabric; keep the returned handle to detach later."""
        return network.subscribe(self.notify, service_id=service_id,
                                 qualified_name=qualified_name)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def stream(self, service_id: str, qualified_name: str
               ) -> list[Measurement]:
        return list(self._by_stream.get((service_id, qualified_name), []))

    def window(self, service_id: str, qualified_name: str,
               since: float, until: float) -> list[Measurement]:
        # Iterate the internal stream list directly — stream() copies, and
        # window queries run on every periodic rule-engine pass.
        events = self._by_stream.get((service_id, qualified_name))
        if not events:
            return []
        return [m for m in events if since <= m.timestamp <= until]

    # -- window statistics (§4.2.1 time-series operations) --------------------
    def _window_values(self, service_id: str, qualified_name: str,
                       since: float, until: float) -> list[float]:
        return [float(m.value)
                for m in self.window(service_id, qualified_name, since, until)]

    def window_mean(self, service_id: str, qualified_name: str,
                    since: float, until: float) -> Optional[float]:
        values = self._window_values(service_id, qualified_name, since, until)
        return sum(values) / len(values) if values else None

    def window_min(self, service_id: str, qualified_name: str,
                   since: float, until: float) -> Optional[float]:
        values = self._window_values(service_id, qualified_name, since, until)
        return min(values) if values else None

    def window_max(self, service_id: str, qualified_name: str,
                   since: float, until: float) -> Optional[float]:
        values = self._window_values(service_id, qualified_name, since, until)
        return max(values) if values else None

    def gaps_exceeding(self, service_id: str, qualified_name: str,
                       max_gap_s: float) -> list[tuple[float, float]]:
        """Intervals where consecutive events were further apart than
        ``max_gap_s`` — a probe-health diagnostic."""
        events = self.stream(service_id, qualified_name)
        out = []
        for a, b in zip(events, events[1:]):
            if b.timestamp - a.timestamp > max_gap_s:
                out.append((a.timestamp, b.timestamp))
        return out
