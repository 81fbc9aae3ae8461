"""The unified metrics layer: Counter / Gauge / Histogram behind one registry.

Before this module, operational counters were scattered: the rule engine kept
``evaluations``/``rules_skipped`` ints, the distribution fabric kept
``bytes_published``/``packets_decoded``, the control plane a ``counters``
dict, and the VEEM nothing at all. One experiment-wide question — "how much
work did this run do, per layer?" — meant knowing every attribute by heart.

The registry unifies them under one naming scheme, ``layer.component.metric``
(e.g. ``control.plane.admitted``, ``monitoring.fabric.bytes_published``),
with optional labels for per-instance streams (``service="sap-1"``).

Two kinds of instruments coexist deliberately:

* **owned** instruments (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) — the registry is the canonical store; components that
  previously kept their own tallies (control plane, VEEM) now increment
  these, and any legacy attribute is a *view* over the registry.
* **view** instruments (:meth:`MetricsRegistry.register_view`) — a callable
  sampled at collection time. Hot-path counters (per-packet byte accounting,
  per-pass rule-engine tallies) stay as the plain attributes they always
  were — zero added cost on the fast path, gated at <10 % on the headline
  benches — and the registry reads them on demand.

Either way every number is reachable through :meth:`MetricsRegistry.collect`
and the Prometheus-style dump in :mod:`repro.obs.exporters`.

This module is dependency-free (no simulation imports): the kernel's
``Environment.metrics`` property imports it lazily.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterator, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricError",
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


class Gauge:
    """A value that can go up and down (queue depth, live instances)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name} {self.value:g}>"


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


class _View:
    """A read-only instrument backed by a callable, sampled at collect."""

    __slots__ = ("name", "labels", "fn")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey, fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.fn = fn

    @property
    def value(self) -> float:
        return float(self.fn())

    def __repr__(self) -> str:
        return f"<View {self.name}>"


Instrument = Union[Counter, Gauge, Histogram, _View]


class MetricsRegistry:
    """One registry per :class:`~repro.sim.kernel.Environment`.

    ``counter``/``gauge``/``histogram`` are get-or-create on the
    (name, labels) key — two components asking for the same stream share the
    instrument. ``register_view`` replaces on re-registration so a component
    rebuilt mid-run (a second rule interpreter over the same service — the
    full-pass oracle in ``tests/oracles/rules.py``, say) re-binds its
    stream instead of erroring.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}

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

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    # -- views ---------------------------------------------------------------
    def register_view(self, name: str, fn: Callable[[], float],
                      **labels: Any) -> None:
        """Expose an externally-owned number (a hot-path attribute) under
        the unified namespace. Re-registering the same key replaces the
        binding."""
        validate_metric_name(name)
        key = (name, _label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None and not isinstance(existing, _View):
            raise MetricError(
                f"{name}{dict(key[1])!r} already owned as {existing.kind}")
        self._instruments[key] = _View(name, key[1], fn)

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
        process into this registry: counter deltas add, gauges adopt the
        shipped final, histogram tails append in arrival order. Instruments
        absent here are created; a kind conflict raises."""
        for (name, label_key), (kind, payload) in sorted(snapshot.items()):
            if kind == "counter":
                self._merge_target(Counter, name, label_key).value += payload
            elif kind == "gauge":
                self._merge_target(Gauge, name, label_key).value = payload
            elif kind == "histogram":
                self._merge_target(Histogram, name, label_key).merge(payload)
            else:
                raise MetricError(f"unknown snapshot kind {kind!r}")

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return any(k[0] == name for k in self._instruments)

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Current scalar value (histograms: observation count)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def collect(self) -> Iterator[tuple[str, dict[str, str], str, Any]]:
        """Yield ``(name, labels, kind, value)`` for every instrument,
        sorted by name then labels; histograms yield their summary dict."""
        for (name, labels), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0]):
            if isinstance(instrument, Histogram):
                yield name, dict(labels), "histogram", instrument.summary()
            else:
                yield name, dict(labels), instrument.kind, instrument.value

    def as_dict(self) -> dict[str, Any]:
        """Flat ``{name{labels}: value}`` snapshot, for tests and reports."""
        out: dict[str, Any] = {}
        for name, labels, _kind, value in self.collect():
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels.items())
                out[f"{name}{{{rendered}}}"] = value
            else:
                out[name] = value
        return out


class SnapshotCursor:
    """Incremental, picklable snapshots of a registry's *owned* instruments.

    Each :meth:`snapshot` call returns only what changed since the last one:
    counter deltas, gauge finals (when moved), and histogram observation
    tails in arrival order. The payload format is
    ``{(name, LabelKey): (kind, delta | final | tuple_of_values)}`` — plain
    builtins, safe to ship over a multiprocessing pipe. Views are excluded
    (they read process-local attributes that cannot travel), as are zero
    deltas and empty tails, keeping epoch payloads compact.

    Workers take one discarded baseline snapshot right after replaying the
    coordinator's pinned submissions, so the replay's counter increments —
    already counted in the coordinator's planning registry — never ship.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._hist_counts: dict[tuple[str, LabelKey], int] = {}

    def snapshot(self, registry: MetricsRegistry) -> dict:
        out: dict = {}
        for key, instrument in registry._instruments.items():
            if isinstance(instrument, Counter):
                delta = instrument.value - self._counters.get(key, 0.0)
                if delta:
                    out[key] = ("counter", delta)
                    self._counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                if instrument.value != self._gauges.get(key):
                    out[key] = ("gauge", instrument.value)
                    self._gauges[key] = instrument.value
            elif isinstance(instrument, Histogram):
                seen = self._hist_counts.get(key, 0)
                tail = instrument._values[seen:]
                if tail:
                    out[key] = ("histogram", tuple(tail))
                    self._hist_counts[key] = len(instrument._values)
        return out


def canonical_view(registry: MetricsRegistry, *,
                   strip: tuple = ("plane",)) -> dict[str, Any]:
    """The federation-wide metric view used for oracle comparison.

    Owned instruments only (views read process-local attributes and are
    meaningless across a merge), with the ``plane`` label stripped —
    ``ControlPlane`` numbers its metric streams with a module-level counter,
    so ``plane1`` in the coordinator is ``plane3`` in a test that built two
    earlier planes. Counters summed across stripped keys (zero counters
    dropped), gauges kept as-is, histograms summarised after a
    sorted-instrument-order merge (empty ones dropped). Keys render as
    ``name`` or ``name{k=v,...}``, sorted.
    """
    counters: dict[tuple[str, LabelKey], float] = {}
    gauges: dict[tuple[str, LabelKey], float] = {}
    hists: dict[tuple[str, LabelKey], Histogram] = {}
    for (name, labels), instrument in sorted(
            registry._instruments.items(), key=lambda item: item[0]):
        stripped = tuple(kv for kv in labels if kv[0] not in strip)
        key = (name, stripped)
        if isinstance(instrument, Counter):
            counters[key] = counters.get(key, 0.0) + instrument.value
        elif isinstance(instrument, Gauge):
            gauges[key] = instrument.value
        elif isinstance(instrument, Histogram):
            target = hists.get(key)
            if target is None:
                hists[key] = target = Histogram(name, stripped)
            target.merge(instrument._values)
    out: dict[str, Any] = {}
    entries: list[tuple[tuple[str, LabelKey], Any]] = []
    entries.extend((k, v) for k, v in counters.items() if v)
    entries.extend(gauges.items())
    entries.extend((k, h.summary()) for k, h in hists.items() if h.count)
    for (name, labels), value in sorted(entries, key=lambda item: item[0]):
        if labels:
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            out[f"{name}{{{rendered}}}"] = value
        else:
            out[name] = value
    return out
