"""Measurement consumers.

The Service Manager's rule interpreter is the paper's flagship consumer: the
OCL semantics (§4.2.2) require it to append incoming events to
``monitoringRecords`` and, at evaluation time, read *the latest value for the
monitoring record with a specific qualified name*, falling back to a KPI's
declared default when no record exists yet. :class:`MeasurementStore`
implements exactly that contract. The §4.2.1 time-series operations read a
trailing window of a stream, and :func:`aggregate_window` is the one
routine that answers them, over either of two histories.
:class:`TrailingWindows` keeps a stream only while a window operation reads
it, and only as far back as the longest such window reaches: the rule
engine and the SLA monitor read their conditions' windows through it.
:class:`MeasurementJournal` keeps the full history, which the generated
validation instruments (§4.2.3) replay and aggregate.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Iterable, Optional

from .distribution import DistributionFramework, Subscription
from .measurements import Measurement

__all__ = ["MeasurementStore", "MeasurementJournal", "TrailingWindows",
           "aggregate_window"]


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


def aggregate_window(samples: Iterable[Measurement], since: float,
                     until: float, op: str) -> Optional[float]:
    """The §4.2.1 time-series operation ``op`` over the samples with
    ``since <= timestamp <= until``, in the order given.

    ``count`` is the number of samples (their values are not read);
    ``mean``, ``min`` and ``max`` aggregate the values as floats and are
    ``None`` over an empty window.
    """
    window = [m for m in samples if since <= m.timestamp <= until]
    if op == "count":
        return float(len(window))
    if not window:
        return None
    values = [float(m.value) for m in window]
    if op == "mean":
        return sum(values) / len(values)
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    raise ValueError(f"unknown window operation {op!r}")


class TrailingWindows:
    """The trailing windows a set of conditions reads, keyed by qualified
    name; its owner drops other services' samples before they get here.

    A stream is kept only once :meth:`watch` names it, and only as far
    back as the longest window watched on it: :meth:`notify` drops a
    sample from the front once it is older than ``now`` minus that
    horizon. A read at ``now' >= now`` of a window no longer than the
    horizon starts at ``now' - window >= now - horizon`` (IEEE subtraction
    rounds monotonically), so no later read reaches a dropped sample, and
    the samples kept are read in arrival order: :meth:`aggregate` answers
    exactly as a full journal of the stream does (DESIGN.md §9).
    """

    __slots__ = ("_streams",)

    def __init__(self) -> None:
        #: qualified name → (samples in arrival order, horizon in seconds)
        self._streams: dict[str, tuple[deque, float]] = {}

    def watch(self, qualified_name: str, window_s: float) -> None:
        """Keep ``qualified_name`` from now on, at least ``window_s`` back."""
        entry = self._streams.get(qualified_name)
        if entry is None:
            self._streams[qualified_name] = (deque(), window_s)
        elif window_s > entry[1]:
            self._streams[qualified_name] = (entry[0], window_s)

    def notify(self, measurement: Measurement, now: float) -> None:
        entry = self._streams.get(measurement.qualified_name)
        if entry is None:
            return  # no window reads this stream
        samples, horizon = entry
        samples.append(measurement)
        # A straggler (an older timestamp behind a newer one) waits until
        # it reaches the front; the read filters it as a journal would.
        edge = now - horizon
        while samples and samples[0].timestamp < edge:
            samples.popleft()

    def aggregate(self, qualified_name: str, since: float, until: float,
                  op: str) -> Optional[float]:
        """:func:`aggregate_window` over the stream's kept samples."""
        entry = self._streams.get(qualified_name)
        return aggregate_window(entry[0] if entry is not None else (),
                                since, until, op)


class MeasurementJournal:
    """Full-history consumer: every event kept, queryable by stream/time.

    The enforcement validator reads its window operations through
    :meth:`aggregate` and replays the events, as the generated
    elasticity-validation instruments must: they replay "incoming
    monitoring events and [verify] where appropriate that suitable
    adjustment operations were invoked by matching entries and time frames
    in infrastructural logs" (§4.2.3).
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

    def aggregate(self, service_id: str, qualified_name: str,
                  since: float, until: float, op: str) -> Optional[float]:
        """:func:`aggregate_window` over the stream's events."""
        return aggregate_window(
            self._by_stream.get((service_id, qualified_name), ()),
            since, until, op)
