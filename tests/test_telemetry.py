"""§17 telemetry pipeline: snapshot/merge machinery, flight recorder,
sim-time profiler, and the epoch-report protocol extensions."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scale import FederationRun, ScaleConfig, run_scale
from repro.obs.audit import TimeConstraintAuditor, audit_violation_strings
from repro.obs.metrics import (
    MetricError,
    MetricsRegistry,
    SnapshotCursor,
    canonical_view,
)
from repro.obs.profile import SimProfiler
from repro.obs.recorder import FlightRecorder, dump_flight
from repro.sim.kernel import Environment, SimError
from repro.sim.shard import EpochReport
from repro.sim.tracing import TraceLog
from tests.oracles.kernel import HeapEnvironment


# ---------------------------------------------------------------------------
# SnapshotCursor: incremental, compact, picklable
# ---------------------------------------------------------------------------

def test_cursor_counter_deltas_only():
    reg = MetricsRegistry()
    cur = SnapshotCursor()
    reg.counter("a.b.c").inc(3)
    snap = cur.snapshot(reg)
    assert snap == {("a.b.c", ()): ("counter", 3.0)}
    # unchanged counter does not ship again
    assert cur.snapshot(reg) == {}
    reg.counter("a.b.c").inc(2)
    assert cur.snapshot(reg) == {("a.b.c", ()): ("counter", 2.0)}


def test_cursor_histogram_ships_tails_in_order():
    reg = MetricsRegistry()
    cur = SnapshotCursor()
    h = reg.histogram("a.b.h")
    for v in (5.0, 1.0, 3.0):
        h.observe(v)
    assert cur.snapshot(reg)[("a.b.h", ())] == ("histogram", (5.0, 1.0, 3.0))
    # a percentile read between snapshots must NOT reshuffle the tail
    assert h.percentile(0.5) == 3.0
    h.observe(2.0)
    h.observe(4.0)
    assert cur.snapshot(reg)[("a.b.h", ())] == ("histogram", (2.0, 4.0))


def test_cursor_skips_views_and_empties():
    reg = MetricsRegistry()
    reg.register_view("a.b.view", lambda: 42.0)
    reg.counter("a.b.zero")          # created but never incremented
    reg.histogram("a.b.empty")
    cur = SnapshotCursor()
    assert cur.snapshot(reg) == {}


def test_cursor_baseline_discard_excludes_replay():
    reg = MetricsRegistry()
    reg.counter("a.b.c").inc(100)    # "pinned replay" increments
    cur = SnapshotCursor()
    cur.snapshot(reg)                # baseline, discarded
    reg.counter("a.b.c").inc(5)
    assert cur.snapshot(reg) == {("a.b.c", ()): ("counter", 5.0)}


def test_snapshot_payload_is_picklable():
    reg = MetricsRegistry()
    reg.counter("a.b.c", site="s1").inc()
    reg.histogram("a.b.h").observe(1.5)
    snap = SnapshotCursor().snapshot(reg)
    assert pickle.loads(pickle.dumps(snap)) == snap


# ---------------------------------------------------------------------------
# MetricsRegistry.merge_snapshot
# ---------------------------------------------------------------------------

def test_merge_snapshot_folds_all_kinds():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.counter("a.b.c").inc(3)
    src.histogram("a.b.h", site="s0").observe(2.5)
    dst.counter("a.b.c").inc(4)      # pre-existing value adds up
    dst.merge_snapshot(SnapshotCursor().snapshot(src))
    assert dst.counter("a.b.c").value == 7.0
    assert dst.histogram("a.b.h", site="s0").count == 1
    assert dst.histogram("a.b.h", site="s0").sum == 2.5


def test_merge_snapshot_kind_conflict_raises():
    src, dst = MetricsRegistry(), MetricsRegistry()
    src.counter("a.b.c").inc()
    dst.histogram("a.b.c")
    with pytest.raises(MetricError, match="already registered"):
        dst.merge_snapshot(SnapshotCursor().snapshot(src))
    with pytest.raises(MetricError, match="unknown snapshot kind"):
        dst.merge_snapshot({("a.b.x", ()): ("sketch", 1.0)})


def test_histogram_merge_keeps_order_and_sum():
    a = MetricsRegistry().histogram("a.b.h")
    for v in (0.1, 0.2, 0.3):
        a.observe(v)
    b = MetricsRegistry().histogram("a.b.h")
    b.merge(a._values)
    assert b._values == [0.1, 0.2, 0.3]
    assert b.sum == a.sum            # bit-identical: same fold order
    assert b.percentile(1.0) == 0.3


# ---------------------------------------------------------------------------
# canonical_view
# ---------------------------------------------------------------------------

def test_canonical_view_strips_plane_and_sums():
    reg = MetricsRegistry()
    reg.counter("c.p.admitted", plane="plane1").inc(3)
    reg.counter("c.p.admitted", plane="plane9").inc(4)
    reg.counter("c.p.zero", plane="plane1")            # dropped: zero
    reg.register_view("c.p.depth", lambda: 5.0)        # dropped: view
    reg.histogram("c.p.empty")                         # dropped: empty
    reg.histogram("c.p.wait", plane="plane2").observe(1.0)
    view = canonical_view(reg)
    assert view == {
        "c.p.admitted": 7.0,
        "c.p.wait": reg.histogram("c.p.wait", plane="plane2").summary(),
    }


def test_canonical_view_is_deterministic_under_plane_renumbering():
    def build(plane):
        reg = MetricsRegistry()
        reg.counter("c.p.admitted", plane=plane).inc(2)
        reg.histogram("c.p.wait", plane=plane).observe(3.5)
        return canonical_view(reg)
    assert build("plane1") == build("plane42")


# ---------------------------------------------------------------------------
# Property: merged worker snapshots == the single-process registry
# ---------------------------------------------------------------------------

#: Disjoint name pools per kind — same (name, labels) key as two kinds is
#: a registration error, not a merge case.
_NAMES = {"counter": ("w.x.ca", "w.x.cb", "w.x.cc"),
          "hist": ("w.x.ha", "w.x.hb")}

_op = st.sampled_from(("counter", "hist")).flatmap(
    lambda kind: st.tuples(
        st.integers(min_value=0, max_value=2),        # worker
        st.just(kind),
        st.sampled_from(_NAMES[kind]),
        st.integers(min_value=1, max_value=100),      # int-valued: exact
    ))


def _apply(reg, worker, kind, name, value):
    if kind == "counter":
        # shared across workers: float addition of small ints is exact,
        # so any merge order reproduces the oracle total
        reg.counter(name).inc(float(value))
    else:
        # per-worker instruments, like the harness's site-labelled ones:
        # shipped tails replay in the owner's observation order
        reg.histogram(name, shard=f"w{worker}").observe(float(value))


@settings(max_examples=60, deadline=None)
@given(pre=st.lists(_op, max_size=10), ops=st.lists(_op, max_size=40),
       epochs=st.integers(min_value=1, max_value=4))
def test_merged_view_equals_single_process_view(pre, ops, epochs):
    oracle = MetricsRegistry()
    coordinator = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(3)]
    # "admission planning": the coordinator and the oracle both run it;
    # every worker replays it, then baselines it away
    for op in pre:
        _apply(oracle, *op)
        _apply(coordinator, *op)
        for reg in workers:
            _apply(reg, *op)
    cursors = [SnapshotCursor() for _ in workers]
    for cur, reg in zip(cursors, workers):
        cur.snapshot(reg)
    # the run: ops interleave globally (oracle order) and restrict to a
    # per-worker subsequence (shard order), with epoch barriers between
    chunk = max(1, len(ops) // epochs)
    for start in range(0, len(ops) or 1, chunk):
        for op in ops[start:start + chunk]:
            _apply(oracle, *op)
            _apply(workers[op[0]], *op)
        for cur, reg in zip(cursors, workers):
            coordinator.merge_snapshot(cur.snapshot(reg))
    assert canonical_view(coordinator) == canonical_view(oracle)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def _trace_env():
    env = Environment()
    return env, TraceLog(env)


def test_flight_recorder_keeps_last_n():
    env, trace = _trace_env()
    rec = FlightRecorder(trace, capacity=4)
    for i in range(10):
        trace.emit("test", "tick", seq=i)
    snap = rec.snapshot()
    assert [r["details"]["seq"] for r in snap] == [6, 7, 8, 9]
    assert rec.seen == 10
    with pytest.raises(ValueError):
        FlightRecorder(trace, capacity=0)


def test_flight_recorder_snapshot_is_portable():
    env, trace = _trace_env()
    rec = FlightRecorder(trace, capacity=8)
    trace.emit("test", "obj", payload=object(), ok=True, level=1.5)
    snap = rec.snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap
    json.dumps(snap)                 # JSON-safe too
    details = snap[0]["details"]
    assert details["ok"] is True and details["level"] == 1.5
    assert isinstance(details["payload"], str)


def test_flight_recorder_dump_and_close(tmp_path):
    env, trace = _trace_env()
    rec = FlightRecorder(trace, capacity=4)
    trace.emit("test", "tick", seq=1)
    path = rec.dump(tmp_path / "f.jsonl", reason="unit test")
    lines = [json.loads(line) for line
             in open(path).read().splitlines()]
    assert lines[0]["record"] == "flight"
    assert lines[0]["reason"] == "unit test"
    assert lines[0]["captured"] == 1 and lines[0]["capacity"] == 4
    assert lines[1]["kind"] == "tick"


def test_dump_flight_module_function(tmp_path):
    path = dump_flight(tmp_path / "d.jsonl",
                       ({"time": 1.0, "kind": "x"},), reason="r")
    lines = open(path).read().splitlines()
    assert json.loads(lines[0])["captured"] == 1
    assert json.loads(lines[1]) == {"time": 1.0, "kind": "x"}


# ---------------------------------------------------------------------------
# Sim-time profiler
# ---------------------------------------------------------------------------

def test_profiler_refused_on_reference_kernel():
    env = HeapEnvironment()
    with pytest.raises(SimError, match="reference"):
        SimProfiler().attach(env)


def test_profiler_counts_every_dispatch():
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, settle_s=120.0)
    profiler = SimProfiler()
    report = run_scale(cfg, profiler=profiler)
    assert profiler.total_events == report.events_processed
    assert profiler.total_wall_s > 0.0
    layers = {layer for layer, _kind in profiler.by_key}
    assert "sessions" in layers      # the session drivers
    text = profiler.render()
    assert "sim profile" in text and "events" in text


def test_profiler_does_not_change_outcomes():
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, settle_s=120.0,
                      check_invariants=True)
    plain = run_scale(cfg)
    profiled = run_scale(cfg, profiler=SimProfiler())
    assert profiled.decision_outcomes() == plain.decision_outcomes()
    assert profiled.events_processed == plain.events_processed


def test_profiler_chrome_trace_shape():
    cfg = ScaleConfig(sites=2, services=8, hours=0.25)
    profiler = SimProfiler()
    run_scale(cfg, profiler=profiler)
    doc = profiler.chrome_trace()
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters and all(e["ts"] >= 0 for e in counters)
    assert doc["otherData"]["totals"]
    json.dumps(doc)                  # exportable


def test_profiler_rejected_under_sharding():
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, procs=2)
    with pytest.raises(ValueError, match="procs=1"):
        run_scale(cfg, profiler=SimProfiler())


def test_profile_hook_clearable():
    env = Environment()
    seen = []
    env.profile(lambda e, cbs, w: seen.append(type(e).__name__))
    env.timeout(1.0)
    env.run()
    assert seen == ["Timeout"]
    env.profile(None)
    env.timeout(1.0)
    env.run()
    assert seen == ["Timeout"]       # hook removed


# ---------------------------------------------------------------------------
# Epoch-report protocol + incremental audit
# ---------------------------------------------------------------------------

def test_epoch_report_telemetry_defaults():
    report = EpochReport(shard=0, now=1.0)
    assert report.metrics is None and report.findings == ()
    assert pickle.loads(pickle.dumps(report)).findings == ()


def test_incremental_audit_is_exactly_once():
    """Per-epoch audits with a span-id cursor must union to the same
    findings as one end-of-run audit."""
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, settle_s=120.0)
    # the audit a run performs at each epoch barrier, split mid-run, against
    # one audit of the finished trace
    run = FederationRun(cfg, ("site-0", "site-1"))
    first = run.run_epoch(cfg.duration_s / 2).findings
    second = run.run_epoch(cfg.duration_s + cfg.settle_s).findings
    full = TimeConstraintAuditor(run.control.trace).audit().findings
    assert len(first) + len(second) == len(full)
    assert len(full) > 0             # the run actually fired rules
    assert (audit_violation_strings(first + second)
            == audit_violation_strings(full))
    ids = [f.firing_span_id for f in first + second]
    assert sorted(ids) == sorted(f.firing_span_id for f in full)
