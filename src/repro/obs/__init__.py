"""Observability layer: causal spans, unified metrics, exporters, auditors.

``repro.obs`` gives the reproduction the cross-layer attribution the paper's
§4.2.3 instruments assume: spans link control-plane admission through
Service Manager lifecycle, rule firings and VEEM operations down to
monitoring delivery; the metrics registry unifies the per-component counters
under one ``layer.component.metric`` namespace; exporters turn both into
JSONL, Chrome trace-event and Prometheus text; and
:class:`TimeConstraintAuditor` verifies elasticity actions against their
declared time constraints by walking the span tree.

Span/record *storage* lives in :class:`repro.sim.tracing.TraceLog`; this
package holds the primitives (:mod:`~repro.obs.spans`,
:mod:`~repro.obs.metrics`) and the consumers
(:mod:`~repro.obs.exporters`, :mod:`~repro.obs.audit`).
"""

from .audit import (
    AuditFinding,
    AuditReport,
    TimeConstraintAuditor,
    audit_violation_strings,
)
from .exporters import (
    chrome_trace,
    export_jsonl,
    prometheus_text,
    render_span_tree,
)
from .metrics import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    SnapshotCursor,
    canonical_view,
)
from .profile import SimProfiler
from .recorder import FlightRecorder, dump_flight
from .spans import Span, SpanError

__all__ = [
    "Span",
    "SpanError",
    "Counter",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SnapshotCursor",
    "canonical_view",
    "export_jsonl",
    "chrome_trace",
    "prometheus_text",
    "render_span_tree",
    "AuditFinding",
    "AuditReport",
    "TimeConstraintAuditor",
    "audit_violation_strings",
    "FlightRecorder",
    "dump_flight",
    "SimProfiler",
]
