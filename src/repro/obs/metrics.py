"""The unified metrics layer: counters, histograms and gauges behind one
registry.

Before this module, operational counters were scattered: the rule engine kept
``evaluations``/``rules_skipped`` ints, the distribution fabric kept
``bytes_published``/``packets_decoded``, the control plane a ``counters``
dict, and the VEEM nothing at all. One experiment-wide question — "how much
work did this run do, per layer?" — meant knowing every attribute by heart.

The registry unifies them under one naming scheme, ``layer.component.metric``
(e.g. ``control.plane.admitted``, ``monitoring.fabric.bytes_published``),
with optional labels for per-instance streams (``service="sap-1"``).

Two kinds of numbers coexist deliberately:

* **owned** instruments (:class:`Counter`, :class:`Histogram`) — the
  registry is the canonical store; components that previously kept their
  own tallies (control plane, VEEM) now increment these, and any legacy
  attribute is a *view* over the registry.
* **gauges** — a component that keeps plain tallies registers itself once
  (:meth:`MetricsRegistry.add_source`) and yields them from its
  ``metric_rows()`` method as ``(name, labels, value)`` rows, which the
  registry reads only when it collects. Hot-path counters (per-packet byte
  accounting, per-pass rule-engine tallies) stay the plain attributes they
  always were — zero added cost on the fast path — and a component holds
  nothing per gauge: the fact is kept once, where it lives.

Either way every number is reachable through :meth:`MetricsRegistry.collect`
and the Prometheus-style dump in :mod:`repro.obs.exporters`.

This module is dependency-free (no simulation imports): the kernel's
``Environment.metrics`` property imports it lazily.
"""

from __future__ import annotations

import math
import re
from typing import Any, Iterator, Optional, Union

__all__ = ["Counter", "Histogram", "MetricsRegistry", "MetricError",
           "SnapshotCursor", "canonical_view"]

#: ``layer.component.metric`` — at least three lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")

#: A label set frozen into a hashable registry key.
LabelKey = tuple[tuple[str, str], ...]


class MetricError(Exception):
    """Bad metric name, label set, or instrument operation."""


def _label_key(labels: dict[str, Any]) -> LabelKey:
    # Instruments are created per service/site/plane, so this runs on the
    # deploy path; the 0- and 1-label cases (the overwhelming majority)
    # skip the sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Names that already passed the regex — metric names are static program
#: text, so this set is small and saves a regex match per instrument
#: creation (every service deploy re-creates its labelled instruments).
_VALIDATED_NAMES: set[str] = set()


def validate_metric_name(name: str) -> str:
    if name in _VALIDATED_NAMES:
        return name
    if not _NAME_RE.match(name):
        raise MetricError(
            f"metric name {name!r} does not follow layer.component.metric "
            f"(lowercase dotted segments, at least three)")
    _VALIDATED_NAMES.add(name)
    return name


class Counter:
    """A monotonically non-decreasing tally."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name} {self.value:g}>"


class Histogram:
    """A distribution with exact quantile summaries (p50/p95/p99).

    Observations are kept raw, in arrival order, and a *sorted copy* is
    built lazily on the first quantile read after a write — simulations
    observe thousands of latencies, not millions, so exactness beats the
    bookkeeping of streaming sketches here. Arrival order is preserved
    because :class:`SnapshotCursor` ships the tail ``_values[cursor:]``
    across process boundaries; sorting in place would reshuffle already-
    shipped observations under the cursor.
    """

    __slots__ = ("name", "labels", "_values", "_sorted_values", "sum")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._values: list[float] = []
        self._sorted_values: Optional[list[float]] = None
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise MetricError(f"{self.name}: cannot observe NaN")
        self._values.append(value)
        self._sorted_values = None
        self.sum += value

    def merge(self, values) -> None:
        """Fold observations shipped from another process, in their
        original arrival order (so ``sum`` accumulates bit-identically to
        the process that observed them)."""
        for value in values:
            self._values.append(value)
            self.sum += value
        if values:
            self._sorted_values = None

    @property
    def count(self) -> int:
        return len(self._values)

    def _ensure_sorted(self) -> list[float]:
        if self._sorted_values is None:
            self._sorted_values = sorted(self._values)
        return self._sorted_values

    def percentile(self, q: float) -> Optional[float]:
        """Exact quantile by the nearest-rank method; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        values = self._ensure_sorted()
        if not values:
            return None
        rank = max(1, math.ceil(q * len(values)))
        return values[rank - 1]

    @property
    def mean(self) -> Optional[float]:
        return self.sum / len(self._values) if self._values else None

    def summary(self) -> dict[str, Optional[float]]:
        values = self._ensure_sorted()
        if not values:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "p50": None, "p95": None, "p99": None}
        return {
            "count": len(values),
            "sum": self.sum,
            "min": values[0],
            "max": values[-1],
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


Instrument = Union[Counter, Histogram]


class MetricsRegistry:
    """One registry per :class:`~repro.sim.kernel.Environment`.

    ``counter``/``histogram`` are get-or-create on the
    (name, labels) key — two components asking for the same stream share the
    instrument. Gauges are read from the sources (:meth:`add_source`) in
    registration order, and a later source's row replaces an earlier one's
    under the same key, so a component rebuilt mid-run (a second rule
    interpreter over the same service — the full-pass oracle in
    ``tests/oracles/rules.py``, say) re-binds its stream instead of
    erroring. A gauge never shadows an owned instrument.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        #: components whose ``metric_rows()`` are read as gauges on collect
        self._sources: list = []

    # -- owned instruments ---------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: dict[str, Any]):
        validate_metric_name(name)
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricError(
                f"{name}{dict(key[1])!r} already registered as "
                f"{instrument.kind}")
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    # -- gauges --------------------------------------------------------------
    def add_source(self, owner) -> None:
        """Read ``owner.metric_rows()`` — ``(name, labels, value)`` rows —
        as gauges whenever the registry collects."""
        self._sources.append(owner)

    def _gauges(self) -> dict[tuple[str, LabelKey], float]:
        gauges: dict[tuple[str, LabelKey], float] = {}
        for owner in self._sources:
            for name, labels, value in owner.metric_rows():
                key = (validate_metric_name(name), _label_key(labels))
                owned = self._instruments.get(key)
                if owned is not None:
                    raise MetricError(f"{name}{dict(key[1])!r} already "
                                      f"owned as {owned.kind}")
                gauges[key] = float(value)
        return gauges

    # -- cross-process merging ----------------------------------------------
    def _merge_target(self, cls, name: str, label_key: LabelKey):
        validate_metric_name(name)
        key = (name, label_key)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, label_key)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise MetricError(
                f"{name}{dict(label_key)!r} already registered as "
                f"{instrument.kind}; snapshot carries a {cls.kind}")
        return instrument

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`SnapshotCursor.snapshot` payload from another
        process into this registry: counter deltas add, histogram tails
        append in arrival order. Instruments absent here are created; a kind
        conflict raises."""
        for (name, label_key), (kind, payload) in sorted(snapshot.items()):
            if kind == "counter":
                self._merge_target(Counter, name, label_key).value += payload
            elif kind == "histogram":
                self._merge_target(Histogram, name, label_key).merge(payload)
            else:
                raise MetricError(f"unknown snapshot kind {kind!r}")

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments) + len(self._gauges())

    def __contains__(self, name: str) -> bool:
        return (any(k[0] == name for k in self._instruments)
                or any(k[0] == name for k in self._gauges()))

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        """The owned instrument under (name, labels), or None."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Current scalar value (histograms: observation count)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return self._gauges().get((name, _label_key(labels)))
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def collect(self) -> Iterator[tuple[str, dict[str, str], str, Any]]:
        """Yield ``(name, labels, kind, value)`` for every instrument and
        gauge, sorted by name then labels; histograms yield their summary
        dict."""
        rows = [(key, instrument.kind,
                 instrument.summary() if isinstance(instrument, Histogram)
                 else instrument.value)
                for key, instrument in self._instruments.items()]
        rows.extend((key, "gauge", value)
                    for key, value in self._gauges().items())
        for (name, labels), kind, value in sorted(rows,
                                                  key=lambda row: row[0]):
            yield name, dict(labels), kind, value


class SnapshotCursor:
    """Incremental, picklable snapshots of a registry's *owned* instruments.

    Each :meth:`snapshot` call returns only what changed since the last one:
    counter deltas and histogram observation tails in arrival order. The
    payload format is ``{(name, LabelKey): (kind, delta | tuple_of_values)}``
    — plain builtins, safe to ship over a multiprocessing pipe. Gauges are
    excluded (they read process-local attributes that cannot travel), as
    are zero deltas and empty tails, keeping epoch payloads compact.

    Workers take one discarded baseline snapshot right after replaying the
    coordinator's pinned submissions, so the replay's counter increments —
    already counted in the coordinator's planning registry — never ship.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._hist_counts: dict[tuple[str, LabelKey], int] = {}

    def snapshot(self, registry: MetricsRegistry) -> dict:
        out: dict = {}
        for key, instrument in registry._instruments.items():
            if isinstance(instrument, Counter):
                delta = instrument.value - self._counters.get(key, 0.0)
                if delta:
                    out[key] = ("counter", delta)
                    self._counters[key] = instrument.value
            elif isinstance(instrument, Histogram):
                seen = self._hist_counts.get(key, 0)
                tail = instrument._values[seen:]
                if tail:
                    out[key] = ("histogram", tuple(tail))
                    self._hist_counts[key] = len(instrument._values)
        return out


def canonical_view(registry: MetricsRegistry) -> dict[str, Any]:
    """The federation-wide metric view used for oracle comparison.

    Owned instruments only (gauges read process-local attributes and are
    meaningless across a merge), with the ``plane`` label stripped —
    ``ControlPlane`` numbers its metric streams per environment, so the
    one plane of a single-process run is ``plane1`` while a test that
    builds three planes in one environment has ``plane3``, and every shard
    worker's plane is ``plane1``. Counters summed across stripped keys
    (zero counters dropped), histograms summarised after a
    sorted-instrument-order merge (empty ones dropped). Keys render as
    ``name`` or ``name{k=v,...}``, sorted.
    """
    counters: dict[tuple[str, LabelKey], float] = {}
    hists: dict[tuple[str, LabelKey], Histogram] = {}
    for (name, labels), instrument in sorted(
            registry._instruments.items(), key=lambda item: item[0]):
        stripped = tuple(kv for kv in labels if kv[0] != "plane")
        key = (name, stripped)
        if isinstance(instrument, Counter):
            counters[key] = counters.get(key, 0.0) + instrument.value
        elif isinstance(instrument, Histogram):
            target = hists.get(key)
            if target is None:
                hists[key] = target = Histogram(name, stripped)
            target.merge(instrument._values)
    out: dict[str, Any] = {}
    entries: list[tuple[tuple[str, LabelKey], Any]] = []
    entries.extend((k, v) for k, v in counters.items() if v)
    entries.extend((k, h.summary()) for k, h in hists.items() if h.count)
    for (name, labels), value in sorted(entries, key=lambda item: item[0]):
        if labels:
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            out[f"{name}{{{rendered}}}"] = value
        else:
            out[name] = value
    return out
