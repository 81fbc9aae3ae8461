"""Measurement consumers.

The Service Manager's rule interpreter is the paper's flagship consumer: the
OCL semantics (§4.2.2) require it to append incoming events to
``monitoringRecords`` and, at evaluation time, read *the latest value for the
monitoring record with a specific qualified name*, falling back to a KPI's
declared default when no record exists yet. :class:`MeasurementStore`
implements exactly that contract. :class:`MeasurementJournal` keeps the full
history: its :meth:`~MeasurementJournal.aggregate` answers the §4.2.1
time-series operations for the rule engine, the SLA monitor and the
enforcement validator, and the generated validation instruments (§4.2.3)
replay its events.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from .distribution import DistributionFramework, Subscription
from .measurements import Measurement

__all__ = ["MeasurementStore", "MeasurementJournal"]


class MeasurementStore:
    """Latest-value store keyed by (service id, qualified name).

    Implements the ``RuleInterpreter::notify`` / ``evaluate(QualifiedElement)``
    OCL contract: each notification is recorded; queries return the latest
    value for the qualified name, or the supplied default.
    """

    __slots__ = ("_latest", "notifications")

    def __init__(self) -> None:
        self._latest: dict[tuple[str, str], Measurement] = {}
        self.notifications = 0

    def notify(self, measurement: Measurement) -> Optional[Measurement]:
        """Record an incoming monitoring event (OCL: append to records).

        Returns the sample it replaces as the latest of its stream, or
        ``None`` for the stream's first."""
        key = (measurement.service_id, measurement.qualified_name)
        latest = self._latest
        previous = latest.get(key)
        latest[key] = measurement
        self.notifications += 1
        return previous

    def subscribe_to(self, network: DistributionFramework, *,
                     service_id: Optional[str] = None,
                     qualified_name: Optional[str] = None) -> Subscription:
        """Attach to a fabric; keep the returned handle to detach later."""
        return network.subscribe(self.notify, service_id=service_id,
                                 qualified_name=qualified_name)

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


class MeasurementJournal:
    """Full-history consumer: every event kept, queryable by stream/time.

    :meth:`aggregate` is the one trailing-window aggregator: the rule
    interpreter, the SLA monitor and the enforcement validator each keep a
    journal and read their window operations through it. The validator also
    replays the events, as the generated elasticity-validation instruments
    must: they replay "incoming monitoring events and [verify] where
    appropriate that suitable adjustment operations were invoked by matching
    entries and time frames in infrastructural logs" (§4.2.3).
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

    def aggregate(self, service_id: str, qualified_name: str,
                  since: float, until: float, op: str) -> Optional[float]:
        """The §4.2.1 time-series operation ``op`` over the stream's events
        with ``since <= timestamp <= until``.

        ``count`` is the number of events (their values are not read);
        ``mean``, ``min`` and ``max`` aggregate the values as floats and are
        ``None`` over an empty window.
        """
        events = self.window(service_id, qualified_name, since, until)
        if op == "count":
            return float(len(events))
        if not events:
            return None
        values = [float(m.value) for m in events]
        if op == "mean":
            return sum(values) / len(values)
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        raise ValueError(f"unknown window operation {op!r}")
