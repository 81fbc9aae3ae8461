"""Observability layer: causal spans, unified metrics, exporters, auditors.

``repro.obs`` gives the reproduction the cross-layer attribution the paper's
§4.2.3 instruments assume: spans link control-plane admission through
Service Manager lifecycle, rule firings and VEEM operations down to
monitoring delivery; the metrics registry unifies the per-component counters
under one ``layer.component.metric`` namespace; exporters turn both into
JSONL, Chrome trace-event and Prometheus text; and
:class:`~repro.obs.audit.TimeConstraintAuditor` verifies elasticity actions
against their declared time constraints by walking the span tree.

Span/record *storage* lives in :class:`repro.sim.tracing.TraceLog`; this
package holds the primitives (:mod:`~repro.obs.spans`,
:mod:`~repro.obs.metrics`) and the consumers
(:mod:`~repro.obs.exporters`, :mod:`~repro.obs.audit`).
"""
