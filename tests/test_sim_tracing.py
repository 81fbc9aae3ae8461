"""Unit tests for trace logs, time series and random streams."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams, lognormal_from_mean_cv
from repro.sim.tracing import SeriesRecorder, TimeSeries, TraceLog


# ---------------------------------------------------------------------------
# TraceLog
# ---------------------------------------------------------------------------

def test_trace_log_records_time_and_details():
    env = Environment()
    log = TraceLog(env)

    def proc(env):
        yield env.timeout(3)
        log.emit("veem", "vm.deploy", vm="dialog-1")

    env.process(proc(env))
    env.run()
    assert len(log) == 1
    rec = log.records[0]
    assert rec.time == 3.0
    assert rec.source == "veem"
    assert rec.kind == "vm.deploy"
    assert rec.details == {"vm": "dialog-1"}


def test_trace_log_query_filters():
    env = Environment()
    log = TraceLog(env)
    log.emit("a", "x", n=1)
    log.emit("b", "x", n=2)
    log.emit("a", "y", n=3)
    assert [r.details["n"] for r in log.query(source="a")] == [1, 3]
    assert [r.details["n"] for r in log.query(kind="x")] == [1, 2]
    assert log.first(source="a").details["n"] == 1
    assert log.last(source="a").details["n"] == 3
    assert log.first(source="missing") is None


def test_trace_log_time_window():
    env = Environment()
    log = TraceLog(env)

    def proc(env):
        for i in range(5):
            log.emit("s", "tick", i=i)
            yield env.timeout(10)

    env.process(proc(env))
    env.run()
    window = log.query(since=10, until=30)
    assert [r.details["i"] for r in window] == [1, 2, 3]


def test_trace_log_listener_and_json():
    env = Environment()
    log = TraceLog(env)
    seen = []
    log.subscribe(seen.append)
    rec = log.emit("src", "kind", value=7)
    assert seen == [rec]
    parsed = json.loads(rec.to_json())
    assert parsed["details"]["value"] == 7


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_time_series_records_and_evaluates():
    ts = TimeSeries("nodes", initial=0)
    ts.record(10, 4)
    ts.record(20, 16)
    assert ts.value_at(0) == 0
    assert ts.value_at(10) == 4
    assert ts.value_at(15) == 4
    assert ts.value_at(25) == 16
    assert ts.current == 16


def test_time_series_rejects_time_travel():
    ts = TimeSeries("x")
    ts.record(5, 1)
    with pytest.raises(ValueError):
        ts.record(4, 2)


def test_time_series_same_time_overwrites():
    ts = TimeSeries("x")
    ts.record(5, 1)
    ts.record(5, 9)
    assert ts.value_at(5) == 9
    assert len(ts.times) == 2  # start point plus one change


def test_time_series_integral():
    ts = TimeSeries("alloc", initial=0)
    ts.record(10, 2)   # 0 for [0,10), 2 for [10,30), 5 for [30,...]
    ts.record(30, 5)
    assert ts.integral(0, 10) == 0
    assert ts.integral(0, 30) == 40
    assert ts.integral(0, 40) == 90
    assert ts.integral(20, 40) == pytest.approx(2 * 10 + 5 * 10)
    assert ts.integral(15, 15) == 0


def test_time_series_mean_matches_hand_computation():
    ts = TimeSeries("alloc", initial=16)
    ts.record(100, 8)
    # 16 for 100 s, then 8 for 100 s → mean 12.
    assert ts.mean(0, 200) == pytest.approx(12.0)


def test_time_series_increment_and_max():
    ts = TimeSeries("queue", initial=0)
    ts.increment(1)
    ts.increment(2)
    ts.increment(3, delta=5)
    ts.increment(4, delta=-2)
    assert ts.current == 5
    assert ts.maximum() == 7


def test_time_series_sample_grid():
    ts = TimeSeries("q", initial=1)
    ts.record(10, 3)
    samples = ts.sample(0, 20, 5)
    assert samples == [(0, 1.0), (5, 1.0), (10, 3.0), (15, 3.0), (20, 3.0)]


@given(
    changes=st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=100),
                  st.floats(min_value=-50, max_value=50)),
        min_size=1, max_size=20,
    )
)
@settings(max_examples=100)
def test_time_series_integral_additivity(changes):
    """∫[0,T] = ∫[0,m] + ∫[m,T] for any split point m — a core invariant the
    Table 3 resource-usage computation relies on."""
    ts = TimeSeries("x", initial=1.0)
    t = 0.0
    for dt, v in changes:
        t += dt
        ts.record(t, v)
    total_end = t + 10
    mid = total_end / 3
    whole = ts.integral(0, total_end)
    split = ts.integral(0, mid) + ts.integral(mid, total_end)
    assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-9)


def test_series_recorder_creates_on_demand():
    env = Environment()
    rec = SeriesRecorder(env)
    rec.record("queue", 5)
    rec.get("queue").increment(env.now)
    assert rec["queue"].current == 6
    assert "queue" in rec
    assert "other" not in rec


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_random_streams_reproducible():
    a = RandomStreams(seed=7).stream("jobs").random(5).tolist()
    b = RandomStreams(seed=7).stream("jobs").random(5).tolist()
    assert a == b


def test_random_streams_independent_by_name():
    rs = RandomStreams(seed=7)
    a = rs.stream("jobs").random(5).tolist()
    b = rs.stream("boot").random(5).tolist()
    assert a != b


def test_random_streams_new_stream_does_not_perturb_existing():
    rs1 = RandomStreams(seed=3)
    first = rs1.stream("jobs").random(3).tolist()

    rs2 = RandomStreams(seed=3)
    rs2.stream("something-new").random(10)  # extra consumer
    second = rs2.stream("jobs").random(3).tolist()
    assert first == second


def test_lognormal_mean_cv_statistics():
    rng = RandomStreams(seed=2).stream("ln")
    draws = [lognormal_from_mean_cv(rng, mean=100, cv=0.3)
             for _ in range(5000)]
    sample_mean = sum(draws) / len(draws)
    assert sample_mean == pytest.approx(100, rel=0.05)
    assert all(d > 0 for d in draws)


def test_lognormal_zero_cv_is_mean():
    rng = RandomStreams(seed=2).stream("ln")
    assert lognormal_from_mean_cv(rng, mean=42, cv=0) == 42


def test_lognormal_validation():
    rng = RandomStreams(seed=2).stream("ln")
    with pytest.raises(ValueError):
        lognormal_from_mean_cv(rng, mean=-1, cv=0.5)
    with pytest.raises(ValueError):
        lognormal_from_mean_cv(rng, mean=1, cv=-0.5)


# ---------------------------------------------------------------------------
# TimeSeries: bisect-windowed extrema
# ---------------------------------------------------------------------------

def test_time_series_windowed_extrema_basic():
    ts = TimeSeries("load", initial=5)
    ts.record(10, 1)
    ts.record(20, 9)
    ts.record(30, 4)
    # Change points inside (12, 25]: the 9 recorded at t=20.
    assert ts.maximum(12, 25) == 9
    # The value *entering* the window (the level carried in from t=10)
    # counts too -- the series sat at 1 from t=12 until t=20.
    assert ts.minimum(12, 25) == 1
    # Full-history defaults are unchanged.
    assert ts.maximum() == 9
    assert ts.minimum() == 1


def test_time_series_window_with_no_interior_points_uses_entering_value():
    ts = TimeSeries("load", initial=5)
    ts.record(10, 7)
    ts.record(50, 2)
    # No change point falls in [20, 30]; the step level there is 7.
    assert ts.maximum(20, 30) == 7
    assert ts.minimum(20, 30) == 7


def test_time_series_window_boundaries_are_inclusive():
    ts = TimeSeries("load", initial=0)
    ts.record(10, 3)
    ts.record(20, 8)
    # start exactly on a change point includes it (right-continuity).
    assert ts.maximum(10, 15) == 3
    # end exactly on a change point includes it.
    assert ts.maximum(5, 20) == 8
    assert ts.minimum(10, 20) == 3


def test_time_series_window_before_first_point():
    ts = TimeSeries("load", initial=4, start=100.0)
    ts.record(200, 9)
    # A window entirely before the series started raises: there is no
    # level entering the window and no change point inside it.
    with pytest.raises(ValueError):
        ts.maximum(0, 50)
    # A window starting at/after the first point works.
    assert ts.minimum(100, 150) == 4


def test_time_series_extrema_million_points():
    """Regression: windowed extrema on a 1e6-point series must return the
    same answers as brute-force slices (and not scan full history)."""
    n = 1_000_000
    ts = TimeSeries("big", initial=0.0)
    # Deterministic sawtooth with two planted outliers; build the columns
    # directly (record() per point would dominate the test's runtime).
    ts.times.extend(float(i) for i in range(1, n + 1))
    ts.values.extend(float(i % 97) for i in range(1, n + 1))
    ts.values[500_000] = 5000.0   # t = 500_000
    ts.values[750_000] = -50.0    # t = 750_000

    assert ts.maximum() == 5000.0
    assert ts.minimum() == -50.0
    # Tight windows around the planted points.
    assert ts.maximum(499_999.5, 500_000.5) == 5000.0
    assert ts.minimum(749_999.5, 750_000.5) == -50.0
    # A window avoiding both outliers: sawtooth extrema plus the level
    # entering the window.
    lo_t, hi_t = 100_000.0, 100_500.0
    brute = list(ts.values[100_000:100_501])  # change points in [lo, hi]
    assert ts.maximum(lo_t, hi_t) == max(brute)
    assert ts.minimum(lo_t, hi_t) == min(brute)
    # A window strictly between change points reads the entering level.
    assert ts.maximum(123_456.25, 123_456.75) == float(123_456 % 97)
    assert ts.minimum(123_456.25, 123_456.75) == float(123_456 % 97)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000),
                          st.floats(min_value=-100, max_value=100)),
                min_size=1, max_size=30),
       st.floats(min_value=-10, max_value=1010),
       st.floats(min_value=0, max_value=200))
@settings(max_examples=100, deadline=None)
def test_time_series_extrema_match_bruteforce(points, start, width):
    points = sorted(points)
    ts = TimeSeries("h", initial=0.0)
    for t, v in points:
        ts.record(t, v)
    end = start + width
    # Brute force over the step function: values at change points in
    # [start, end], plus the level entering the window.
    candidates = [v for t, v in ts.steps() if start <= t <= end]
    if ts.times[0] < start:
        candidates.append(ts.value_at(start))
    if not candidates:
        with pytest.raises(ValueError):
            ts.maximum(start, end)
    else:
        assert ts.maximum(start, end) == max(candidates)
        assert ts.minimum(start, end) == min(candidates)
