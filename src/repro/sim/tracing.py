"""Structured trace log for simulation runs.

The RESERVOIR evaluation relies on *infrastructural logs* to validate that
elasticity actions were invoked within their time constraints (§4.2.3: the
generated instruments "verify ... that suitable adjustment operations were
invoked by matching entries and time frames in infrastructural logs"). This
module provides the log those instruments consume, plus the time-series
recorder used to regenerate Fig. 11.

Beyond flat records the log now carries *causal spans*
(:class:`~repro.obs.spans.Span`): attributed intervals with parent links, so
one chain connects a KPI publication through the rule firing it enabled down
to the VEEM deploy it caused. Flat ``emit()`` callers are untouched — records
emitted outside any span scope serialise byte-identically to the seed.

Query-side, ``query``/``first``/``last`` run off per-(source, kind) indices
maintained lazily: ``emit()`` stays a plain append (the write path is the hot
one), and indices catch up to the high-water mark on the first read. Records
are appended in nondecreasing simulation time, so every index list is itself
time-sorted and the time window reduces to two bisects.
"""

from __future__ import annotations

import bisect
import json
from array import array
from itertools import islice
from operator import attrgetter, mul, sub
from typing import Any, Callable, Iterator, Optional, Union

from ..obs.spans import Span, SpanError, next_span_id
from .kernel import Environment

__all__ = [
    "TraceRecord",
    "TraceLog",
    "TimeSeries",
    "SeriesRecorder",
]

_REC_TIME = attrgetter("time")

#: Shared empty candidate list for index misses.
_EMPTY: tuple = ()


class TraceRecord:
    """One structured log entry: (time, source, event kind, details).

    ``span_id`` attributes the record to the causal span that was ambient
    when it was emitted; it is ``None`` (and omitted from the JSON form) for
    records emitted outside any span scope, keeping flat logging
    byte-identical to the pre-span format.

    Records are immutable by convention. A handwritten ``__slots__`` class
    rather than a frozen dataclass: one is built per ``emit()``, and the
    frozen ``object.__setattr__`` dance is the single biggest cost on that
    path.
    """

    __slots__ = ("time", "source", "kind", "details", "span_id")

    def __init__(self, time: float, source: str, kind: str,
                 details: Optional[dict[str, Any]] = None,
                 span_id: Optional[int] = None):
        self.time = time
        self.source = source
        self.kind = kind
        self.details = details if details is not None else {}
        self.span_id = span_id

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, source={self.source!r}, "
                f"kind={self.kind!r}, details={self.details!r}, "
                f"span_id={self.span_id!r})")

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "time": self.time, "source": self.source, "kind": self.kind,
            "details": self.details,
        }
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        return json.dumps(payload, sort_keys=True)


class _SpanScope:
    """Hand-rolled context manager for :meth:`TraceLog.span_scope` — this
    sits on the deploy/submit paths, where ``@contextmanager``'s generator
    machinery is measurable overhead."""

    __slots__ = ("_log", "_scope", "span", "_status")

    def __init__(self, log: "TraceLog", span: Span, status: str):
        self._log = log
        self._scope = log._scope
        self.span = span
        self._status = status

    def __enter__(self) -> Span:
        self._scope.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._scope.pop()
        if not self.span.closed:
            self._log.close_span(
                self.span, "error" if exc_type is not None else self._status)
        return False


class _Activation:
    """Hand-rolled context manager for :meth:`TraceLog.activate`."""

    __slots__ = ("_scope", "span")

    def __init__(self, scope: list, span: Span):
        self._scope = scope
        self.span = span

    def __enter__(self) -> Span:
        self._scope.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._scope.pop()
        return False


class TraceLog:
    """Append-only structured log with indexed queries and causal spans."""

    def __init__(self, env: Environment):
        self.env = env
        # The ambient scope stack lives on the environment (causality is an
        # environment-wide property); bind the list once for the hot paths.
        self._scope = env._obs_scope
        self.records: list[TraceRecord] = []
        #: All spans opened through this log, by id (insertion-ordered).
        self.spans: dict[int, Span] = {}
        # Lazy per-(source, kind) indices over ``records``; ``_idx_pos`` is
        # the number of records already folded in. emit() never touches
        # these — the first query after a burst of writes catches them up.
        self._by_source: dict[str, list[TraceRecord]] = {}
        self._by_kind: dict[str, list[TraceRecord]] = {}
        self._by_pair: dict[tuple[str, str], list[TraceRecord]] = {}
        self._by_span: dict[int, list[TraceRecord]] = {}
        self._idx_pos = 0
        # Lazy parent id -> child spans index over ``spans``, caught up the
        # same way; ``_child_pos`` spans are folded in. Spans are never
        # removed and a span's parent never changes, so appending suffices.
        self._children: dict[Optional[int], list[Span]] = {}
        self._child_pos = 0

    # -- flat records --------------------------------------------------------
    def emit(self, source: str, kind: str, **details: Any) -> TraceRecord:
        scope = self._scope
        record = TraceRecord(self.env.now, source, kind, details,
                             scope[-1].span_id if scope else None)
        self.records.append(record)
        return record

    def emit_in(self, span: Optional[Span], source: str, kind: str,
                **details: Any) -> TraceRecord:
        """Emit one record attributed to ``span`` directly — the
        single-record equivalent of ``with activate(span): emit(...)``
        without the scope push/pop. ``span=None`` emits a flat record."""
        record = TraceRecord(self.env.now, source, kind, details,
                             span.span_id if span is not None else None)
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- indexed queries -----------------------------------------------------
    def _refresh_indices(self) -> None:
        records = self.records
        pos = self._idx_pos
        if pos == len(records):
            return
        by_source, by_kind = self._by_source, self._by_kind
        by_pair, by_span = self._by_pair, self._by_span
        for i in range(pos, len(records)):
            r = records[i]
            by_source.setdefault(r.source, []).append(r)
            by_kind.setdefault(r.kind, []).append(r)
            by_pair.setdefault((r.source, r.kind), []).append(r)
            if r.span_id is not None:
                by_span.setdefault(r.span_id, []).append(r)
        self._idx_pos = len(records)

    def _candidates(self, source: Optional[str], kind: Optional[str]
                    ) -> list[TraceRecord]:
        if source is None and kind is None:
            return self.records
        self._refresh_indices()
        if source is not None and kind is not None:
            return self._by_pair.get((source, kind), _EMPTY)
        if source is not None:
            return self._by_source.get(source, _EMPTY)
        return self._by_kind.get(kind, _EMPTY)

    def query(self, *, source: Optional[str] = None,
              kind: Optional[str] = None,
              since: float = float("-inf"),
              until: float = float("inf")) -> list[TraceRecord]:
        """Filter records by source, kind and time window (inclusive).

        Index lookup plus two bisects — no linear scan. Results are in emit
        order, identical to the seed's linear filter.
        """
        candidates = self._candidates(source, kind)
        if since == float("-inf") and until == float("inf"):
            return list(candidates)
        lo = bisect.bisect_left(candidates, since, key=_REC_TIME)
        hi = bisect.bisect_right(candidates, until, key=_REC_TIME)
        return list(candidates[lo:hi])

    def first(self, **kwargs: Any) -> Optional[TraceRecord]:
        matches = self.query(**kwargs)
        return matches[0] if matches else None

    def last(self, **kwargs: Any) -> Optional[TraceRecord]:
        matches = self.query(**kwargs)
        return matches[-1] if matches else None

    # -- causal spans --------------------------------------------------------
    def span(self, source: str, kind: str, *,
             parent: Union[Span, int, None] = None,
             **details: Any) -> Span:
        """Open a span. With no explicit ``parent`` it nests under the
        ambient span (the innermost active scope on the environment), or is
        a root if none is active. Pass ``parent=`` explicitly when causality
        crosses a process boundary."""
        if parent is None:
            scope = self._scope
            parent_id = scope[-1].span_id if scope else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = int(parent)
        sp = Span(next_span_id(), parent_id, source, kind, self.env.now,
                  details=details)
        self.spans[sp.span_id] = sp
        return sp

    def close_span(self, span: Span, status: str = "ok",
                   **details: Any) -> Span:
        """Close a span at the current simulated time.

        Rejects double closes, and rejects closing a span that is still an
        *enclosing* ambient scope (close-out-of-order): children must close
        before their active ancestors.
        """
        if span.closed:
            raise SpanError(f"{span!r} already closed")
        scope = self._scope
        if span in scope and scope[-1] is not span:
            raise SpanError(
                f"out-of-order close: {span!r} is an enclosing scope of "
                f"{scope[-1]!r}")
        span.end = self.env.now
        span.status = status
        if details:
            span.details.update(details)
        return span

    def span_scope(self, source: str, kind: str, *,
                   parent: Union[Span, int, None] = None,
                   status: str = "ok", **details: Any) -> _SpanScope:
        """Open a span, make it ambient for the enclosed *synchronous*
        section, and close it on exit (``status="error"`` on exception).

        Never hold a scope across a ``yield``: processes interleave, and the
        ambient stack is shared by the whole environment.
        """
        return _SpanScope(self, self.span(source, kind, parent=parent,
                                          **details), status)

    def activate(self, span: Span) -> _Activation:
        """Make an existing open span ambient for a synchronous section
        without closing it on exit — for long-lived spans (a deployment in
        flight) that attribute work across several synchronous bursts."""
        return _Activation(self._scope, span)

    # -- span queries --------------------------------------------------------
    def get_span(self, span_id: int) -> Optional[Span]:
        return self.spans.get(span_id)

    def find_spans(self, *, source: Optional[str] = None,
                   kind: Optional[str] = None,
                   status: Optional[str] = None) -> list[Span]:
        return [
            s for s in self.spans.values()
            if (source is None or s.source == source)
            and (kind is None or s.kind == kind)
            and (status is None or s.status == status)
        ]

    def open_spans(self) -> list[Span]:
        """Spans never closed — orphans, when the simulation is over."""
        return [s for s in self.spans.values() if not s.closed]

    def children(self, span: Union[Span, int]) -> list[Span]:
        """Direct children of ``span`` in this log, in the order opened."""
        spans = self.spans
        if self._child_pos != len(spans):
            children = self._children
            for sp in islice(spans.values(), self._child_pos, None):
                children.setdefault(sp.parent_id, []).append(sp)
            self._child_pos = len(spans)
        parent_id = span.span_id if isinstance(span, Span) else span
        return list(self._children.get(parent_id, _EMPTY))

    def ancestors(self, span: Union[Span, int]) -> list[Span]:
        """Parent chain, nearest first. Stops at a root or at a parent id
        recorded in a different log."""
        sp = self.spans.get(span.span_id if isinstance(span, Span) else span)
        out: list[Span] = []
        while sp is not None and sp.parent_id is not None:
            sp = self.spans.get(sp.parent_id)
            if sp is None:
                break
            out.append(sp)
        return out

    def is_ancestor(self, ancestor: Union[Span, int],
                    descendant: Union[Span, int]) -> bool:
        ancestor_id = (ancestor.span_id if isinstance(ancestor, Span)
                       else ancestor)
        return any(s.span_id == ancestor_id
                   for s in self.ancestors(descendant))

    def span_records(self, span: Union[Span, int]) -> list[TraceRecord]:
        """Flat records attributed to a span (emitted inside its scope)."""
        self._refresh_indices()
        span_id = span.span_id if isinstance(span, Span) else span
        return list(self._by_span.get(span_id, _EMPTY))


class TimeSeries:
    """A step-function time series: value changes recorded at time points.

    Used for the Fig. 11 series (queued jobs, allocated instances) and for the
    resource-usage integrals in Table 3.

    Storage is a pair of ``array('d')`` columns: 8 bytes per point and one
    contiguous buffer per column, versus ~32 bytes per float object (plus
    pointer) for a list — the scale harness keeps millions of points live.
    ``array`` supports ``bisect`` and slicing, so the query paths below are
    windowed instead of scanning full history.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str, initial: float = 0.0, start: float = 0.0):
        self.name = name
        self.times: array = array("d", (start,))
        self.values: array = array("d", (float(initial),))

    def record(self, time: float, value: float) -> None:
        if time < self.times[-1]:
            raise ValueError(
                f"non-monotonic time {time} < {self.times[-1]} in {self.name}"
            )
        if time == self.times[-1]:
            self.values[-1] = value
        else:
            self.times.append(time)
            self.values.append(value)

    def increment(self, time: float, delta: float = 1.0) -> None:
        self.record(time, self.values[-1] + delta)

    @property
    def current(self) -> float:
        return self.values[-1]

    def value_at(self, time: float) -> float:
        """Step-function evaluation (right-continuous).

        Times before the first recorded point return the initial value — a
        series that begins mid-run (e.g. instance counts created on first
        deployment) reads as its initial level before it started.
        """
        idx = bisect.bisect_right(self.times, time) - 1
        if idx < 0:
            return self.values[0]
        return self.values[idx]

    def integral(self, start: float, end: float) -> float:
        """∫ value dt over [start, end] — e.g. node-seconds of allocation.

        Vectorised: the interior segments reduce to one ``sum`` over C-level
        ``map`` pipelines instead of a Python loop per change point. Terms
        are accumulated in the same left-to-right segment order as the
        original loop, so results are bit-identical.
        """
        if end < start:
            raise ValueError("end < start")
        if end == start:
            return 0.0
        times, values = self.times, self.values
        lo = bisect.bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        hi = bisect.bisect_right(times, end) - 1
        if hi < 0:
            hi = 0
        if hi == lo:
            # One segment covers the whole window.
            return values[lo] * (end - start)
        total = values[lo] * (times[lo + 1] - start)
        if hi > lo + 1:
            # sum(..., total) folds left-to-right from the first term, the
            # same accumulation order as the replaced per-segment loop.
            total = sum(map(mul, values[lo + 1:hi],
                            map(sub, times[lo + 2:hi + 1],
                                times[lo + 1:hi])), total)
        return total + values[hi] * (end - times[hi])

    def mean(self, start: float, end: float) -> float:
        """Time-weighted average over [start, end]."""
        if end <= start:
            raise ValueError("need end > start for a mean")
        return self.integral(start, end) / (end - start)

    def _window_extrema(self, start: float, end: float,
                        fold: Callable) -> float:
        """Shared bisect-windowed core of :meth:`maximum`/:meth:`minimum`.

        Two bisects bound the change points inside ``[start, end]``; the
        value *entering* the window (the step level carried in from before
        ``start``) also counts, via :meth:`value_at` so right-continuity at
        a change point is preserved.
        """
        times, values = self.times, self.values
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if lo == 0 and hi == len(values):
            window = values
        else:
            window = values[lo:hi]
        if times[0] < start:
            entering = self.value_at(start)
            if not window:
                return entering
            return fold(fold(window), entering)
        if not window:
            raise ValueError("empty window")
        return fold(window)

    def maximum(self, start: float = float("-inf"),
                end: float = float("inf")) -> float:
        """Largest value attained over [start, end]."""
        return self._window_extrema(start, end, max)

    def minimum(self, start: float = float("-inf"),
                end: float = float("inf")) -> float:
        """Smallest value attained over [start, end]."""
        return self._window_extrema(start, end, min)

    def steps(self) -> list[tuple[float, float]]:
        """The raw (time, value) change points."""
        return list(zip(self.times, self.values))

    def sample(self, start: float, end: float, period: float
               ) -> list[tuple[float, float]]:
        """Regular-grid samples of the step function (for plotting/printing).

        Grid points are computed as ``start + i * period`` rather than by
        accumulating ``t += period``: repeated float addition drifts (after
        1e6 steps of 0.1 the accumulated grid is off by whole samples),
        whereas one multiply per point keeps every grid point exact to one
        rounding.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        out = []
        i = 0
        while True:
            t = start + i * period
            if t > end:
                break
            out.append((t, self.value_at(t)))
            i += 1
        return out


class SeriesRecorder:
    """A bag of named :class:`TimeSeries`, convenient for experiments."""

    def __init__(self, env: Environment):
        self.env = env
        self.series: dict[str, TimeSeries] = {}

    def get(self, name: str, initial: float = 0.0) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name, initial, start=self.env.now)
        return self.series[name]

    def record(self, name: str, value: float) -> None:
        self.get(name).record(self.env.now, value)

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]

    def __contains__(self, name: str) -> bool:
        return name in self.series
