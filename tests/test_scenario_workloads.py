"""Property tests for the §16 workload generators.

The three contracts the scenario factory stands on: identical seeds yield
identical session streams (including under ``--procs``), offered load is
conserved at the configured level, and heavy-tailed draws actually carry
the configured tail index.
"""

import math
from types import SimpleNamespace
from typing import Optional

import pytest

from repro.experiments.scale import ScaleConfig, verify_against_oracle
from repro.scenarios.chaos import SiteOutage
from repro.scenarios.workloads import (
    LOAD_UNIT,
    WorkloadError,
    draw_profiles,
    workload_names,
)
from repro.sim.rng import RandomStreams

DURATION = 3600.0


def stub_cfg(workload="baseline", params=(), services=64, tenants=8,
             seed=2010):
    """draw_profiles duck-types its config; a namespace is enough."""
    return SimpleNamespace(
        random_seed=seed, duration_s=DURATION, monitor_period_s=60.0,
        elastic_fraction=0.25, tenants=tenants, workload=workload,
        workload_params=tuple(sorted(dict(params).items())),
        services=services)


def stub_requests(n=64, tenants=8, sites=4):
    return [SimpleNamespace(service_id=f"svc-{i}",
                            tenant=f"tenant-{i % tenants}",
                            site=f"site-{i % sites}")
            for i in range(n)]


# ---------------------------------------------------------------------------
# Analysis helpers (rate conservation, tail index)
# ---------------------------------------------------------------------------

def schedule_mean(schedule, duration_s: float) -> float:
    """Time-weighted mean session level of a piecewise schedule over
    ``[0, duration_s]`` (the last level holds to the end)."""
    if not schedule or duration_s <= 0:
        return 0.0
    total = 0.0
    for index, (at_s, level) in enumerate(schedule):
        if at_s >= duration_s:
            break
        next_at = (schedule[index + 1][0] if index + 1 < len(schedule)
                   else duration_s)
        total += level * (min(next_at, duration_s) - at_s)
    return total / duration_s


def offered_load(profiles, duration_s: float, *,
                 quiet_s: float = 360.0) -> float:
    """Federation-wide mean concurrent sessions implied by ``profiles``.

    Schedule profiles integrate exactly; tide profiles integrate the
    piecewise shape the session driver replays (baseline 30 until
    ``start_s``, half-peak then peak over ``hold_s``, ``drain_level`` for
    ``quiet_s``, baseline 30 after).
    """
    total = 0.0
    for profile in profiles:
        if profile.schedule:
            total += schedule_mean(profile.schedule, duration_s)
            continue
        points = ((0.0, 30),
                  (profile.start_s, profile.ramp[0]),
                  (profile.start_s + profile.hold_s / 2.0, profile.ramp[1]),
                  (profile.start_s + profile.hold_s, profile.drain_level),
                  (profile.start_s + profile.hold_s + quiet_s, 30))
        total += schedule_mean(points, duration_s)
    return total


def hill_estimator(samples, k: Optional[int] = None) -> float:
    """Hill estimate of the tail index alpha from the ``k`` largest order
    statistics (default ``k = max(10, n // 10)``). Larger alpha = lighter
    tail; a Pareto(alpha) sample estimates ~alpha."""
    xs = sorted((float(x) for x in samples), reverse=True)
    n = len(xs)
    if n < 3:
        raise WorkloadError("hill_estimator: need at least 3 samples")
    if k is None:
        k = max(10, n // 10)
    k = min(k, n - 1)
    pivot = xs[k]
    if pivot <= 0:
        raise WorkloadError("hill_estimator: samples must be positive")
    mean_log = sum(math.log(x / pivot) for x in xs[:k]) / k
    if mean_log <= 0:
        raise WorkloadError("hill_estimator: degenerate sample")
    return 1.0 / mean_log


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workload_names()))
def test_identical_seed_identical_stream(name):
    requests = stub_requests()
    first = draw_profiles(stub_cfg(name), requests)
    second = draw_profiles(stub_cfg(name), requests)
    assert first == second


def test_different_seeds_differ():
    requests = stub_requests()
    a = draw_profiles(stub_cfg(seed=1), requests)
    b = draw_profiles(stub_cfg(seed=2), requests)
    assert a != b


def test_baseline_replays_the_historical_draw_order():
    """workload="baseline" must consume the "scale" stream in the exact
    four-draw-per-service order of the pre-factory harness, so existing
    seeds reproduce their recorded runs."""
    requests = stub_requests(n=8)
    profiles = draw_profiles(stub_cfg(), requests)
    rng = RandomStreams(2010).stream("scale")
    for profile in profiles:
        elastic = rng.random() < 0.25
        peak = (int(rng.uniform(100, 150)) if elastic
                else int(rng.uniform(40, 70)))
        start_s = rng.uniform(0.05, 0.4) * DURATION
        hold_s = rng.uniform(0.15, 0.3) * DURATION
        assert profile.peak_sessions == peak
        assert profile.start_s == start_s
        assert profile.hold_s == hold_s
        assert profile.drain_level == (10 if elastic else 30)
        assert profile.schedule == ()


def test_sharded_flash_crowd_with_chaos_matches_oracle():
    """Identical seed ⇒ identical run under --procs too, chaos included:
    the sharded execution must agree with the single-process oracle
    decision-for-decision."""
    cfg = ScaleConfig(
        sites=4, services=16, hours=0.25, random_seed=7, procs=2,
        workload="flash-crowd", check_invariants=True, settle_s=120.0,
        chaos=(SiteOutage(at_s=465.0, sites=("site-1",),
                          recover_after_s=240.0),))
    sharded, oracle, divergences = verify_against_oracle(cfg)
    assert divergences == []
    assert sharded.violations == () and oracle.violations == ()


# ---------------------------------------------------------------------------
# Rate conservation
# ---------------------------------------------------------------------------

def test_diurnal_conserves_offered_load_per_service():
    load = 0.6
    profiles = draw_profiles(
        stub_cfg("diurnal", {"load": load}), stub_requests(n=100))
    for profile in profiles:
        mean = schedule_mean(profile.schedule, DURATION)
        # exact up to per-step integer rounding of the 24-point schedule
        assert mean == pytest.approx(load * LOAD_UNIT, abs=1.0)


def test_heavy_tail_conserves_federation_load():
    load = 0.5
    n = 200
    profiles = draw_profiles(
        stub_cfg("heavy-tail", {"load": load}), stub_requests(n=n))
    total = offered_load(profiles, DURATION)
    # global normalisation is exact up to max(1, round(level)) clamping
    assert total == pytest.approx(load * LOAD_UNIT * n, rel=0.05)


def test_flash_crowd_quiet_level_tracks_load():
    profiles = draw_profiles(
        stub_cfg("flash-crowd", {"load": 0.4, "crowd_fraction": 0.0}),
        stub_requests(n=20))
    for profile in profiles:
        assert profile.schedule == ((0.0, 40),)


# ---------------------------------------------------------------------------
# Tail index
# ---------------------------------------------------------------------------

def test_heavy_tail_produces_configured_tail_index():
    alpha = 1.5
    profiles = draw_profiles(
        stub_cfg("heavy-tail", {"alpha": alpha}),
        stub_requests(n=2000))
    # hold_s carries the untruncated Pareto draw for exactly this purpose
    estimate = hill_estimator([p.hold_s for p in profiles])
    assert estimate == pytest.approx(alpha, rel=0.25)


def test_heavier_tail_estimates_lower_alpha():
    heavy = draw_profiles(stub_cfg("heavy-tail", {"alpha": 1.1}),
                          stub_requests(n=2000))
    light = draw_profiles(stub_cfg("heavy-tail", {"alpha": 2.5}),
                          stub_requests(n=2000))
    assert (hill_estimator([p.hold_s for p in heavy])
            < hill_estimator([p.hold_s for p in light]))


# ---------------------------------------------------------------------------
# Structure and validation
# ---------------------------------------------------------------------------

def test_flash_crowd_membership_fraction():
    profiles = draw_profiles(
        stub_cfg("flash-crowd", {"crowd_fraction": 0.5}),
        stub_requests(n=400))
    members = [p for p in profiles if len(p.schedule) == 4]
    assert 0.4 <= len(members) / len(profiles) <= 0.6
    for member in members:
        spike = member.schedule[1][1]
        assert spike > 80       # past the scale-up threshold
        assert member.schedule[2][1] < 20   # drains below the down threshold


def test_tenant_mix_splits_heavy_and_light():
    profiles = draw_profiles(
        stub_cfg("tenant-mix", {"heavy_tenants": 2}),
        stub_requests(n=64, tenants=8))
    for profile in profiles:
        heavy = profile.tenant in ("tenant-0", "tenant-1")
        if heavy:
            assert profile.schedule == ()
            assert profile.peak_sessions > 80
        else:
            assert profile.schedule == ((0.0, 30),)


def test_schedules_start_at_zero():
    for name in workload_names():
        for profile in draw_profiles(stub_cfg(name), stub_requests(n=16)):
            if profile.schedule:
                assert profile.schedule[0][0] == 0.0


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        draw_profiles(stub_cfg("no-such-workload"), stub_requests(n=1))
    with pytest.raises(ValueError):
        ScaleConfig(workload="no-such-workload")


def test_unknown_workload_parameter_rejected():
    """A misspelled parameter once fell through to the generator's
    default; the error now names the keys the workload reads."""
    with pytest.raises(ValueError, match="lod.*load, cycles, steps, jitter"):
        ScaleConfig(workload="diurnal", workload_params=(("lod", 0.5),))
    with pytest.raises(ValueError, match="takes none"):
        ScaleConfig(workload_params=(("site", 2),))
    ScaleConfig(workload="diurnal", workload_params=(("load", 0.5),))


def test_schedule_mean():
    assert schedule_mean((), 100.0) == 0.0
    assert schedule_mean(((0.0, 10),), 100.0) == 10.0
    assert schedule_mean(((0.0, 0), (50.0, 20)), 100.0) == 10.0
    # the last level holds to the end; points past the horizon are ignored
    assert schedule_mean(((0.0, 4), (200.0, 99)), 100.0) == 4.0


def test_hill_estimator_validation():
    with pytest.raises(WorkloadError):
        hill_estimator([1.0, 2.0])
    with pytest.raises(WorkloadError):
        hill_estimator([0.0] * 20)
    with pytest.raises(WorkloadError):
        hill_estimator([5.0] * 20)      # degenerate: no tail at all
