"""Composable, seeded workload generators (DESIGN.md §16).

The scale harness drives every admitted service with a *session profile*:
either the classic SAP tide (ramp → hold → drain → baseline) or an explicit
piecewise-constant :attr:`SessionProfile.schedule`. Generators here turn an
admission plan (the ordered list of admitted requests) plus a seeded stream
into one profile per service — the same stream the harness consumed before
this module existed, so ``workload="baseline"`` replays the historical
behaviour byte-for-byte.

Determinism contract: profiles are drawn **centrally** (by the coordinator,
before any sharding) from one named :class:`~repro.sim.rng.RandomStreams`
stream, in admission order, with a *fixed number of draws per service* per
generator. That is what makes ``--procs N`` runs replay the identical
workload: workers receive finished profiles, never the RNG.

Session levels are calibrated against the harness's elasticity thresholds
(scale **up** above 80 sessions, **down** below 20): a generator that wants
to exercise elasticity emits levels crossing 80; one that wants a quiet
federation stays between the thresholds. ``load`` parameters are expressed
as a fraction of :data:`LOAD_UNIT` sessions per service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "LOAD_UNIT",
    "SessionProfile",
    "WorkloadError",
    "WORKLOADS",
    "WORKLOAD_PARAMS",
    "workload",
    "workload_names",
    "draw_profiles",
]

#: Nominal sessions-per-service at ``load=1.0``. Sits above the scale-up
#: threshold (80) so full load exercises elasticity; ``load=0.3`` is the
#: historical quiet baseline of 30 sessions.
LOAD_UNIT = 100.0


class WorkloadError(ValueError):
    """Unknown workload name or unusable generator parameters."""


@dataclass(frozen=True)
class SessionProfile:
    """One admitted service's deterministic session stream, drawn centrally
    from the seeded stream so every execution mode replays the same tides.

    Picklable by design: under ``procs > 1`` profiles are shipped to shard
    workers as part of the shard spec.

    Two shapes:

    * ``schedule == ()`` — the classic tide: quiet baseline until
      ``start_s``, ramp to ``peak_sessions`` over ``hold_s``, drain to
      ``drain_level``, settle back to the baseline.
    * ``schedule != ()`` — explicit piecewise-constant levels: ordered
      ``(at_s, sessions)`` points, each level holding until the next point
      (the last level holds to the end of the run). Generators always emit
      an ``at_s == 0.0`` first point so the stream is fully specified.

    For heavy-tailed workloads ``hold_s`` carries the *untruncated* session
    length draw (the tail-index sample) even when a schedule is present.
    """

    service_index: int
    service_id: str
    tenant: str
    site: str
    peak_sessions: int
    start_s: float
    hold_s: float
    drain_level: int
    schedule: tuple = ()

    @property
    def ramp(self) -> tuple[int, int]:
        return (self.peak_sessions // 2, self.peak_sessions)


#: name -> generator(rng, cfg, requests, params) -> list[SessionProfile]
WORKLOADS: dict[str, Callable] = {}
#: name -> the parameter names its generator reads; any other key in a
#: config's ``workload_params`` is an error, not a silently ignored value
WORKLOAD_PARAMS: dict[str, tuple[str, ...]] = {}


def workload(name: str, *params: str):
    """Register a generator under ``name`` (sweep/CLI facing) that reads the
    ``params`` keys of its parameter dict."""
    def register(fn):
        if name in WORKLOADS:
            raise WorkloadError(f"duplicate workload {name!r}")
        WORKLOADS[name] = fn
        WORKLOAD_PARAMS[name] = params
        return fn
    return register


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


def draw_profiles(cfg, admitted_requests) -> list[SessionProfile]:
    """Draw one profile per admitted request for ``cfg.workload``.

    ``cfg`` needs ``random_seed``, ``duration_s``, ``monitor_period_s``,
    ``elastic_fraction``, ``tenants`` and (optionally) ``workload`` /
    ``workload_params`` — i.e. a :class:`~repro.experiments.scale.
    ScaleConfig`, duck-typed so tests can pass a stub.

    The baseline workload keeps the historical stream name (``"scale"``)
    and draw order, so pre-existing seeds reproduce their exact runs; every
    other generator gets its own named stream.
    """
    name = getattr(cfg, "workload", "baseline") or "baseline"
    gen = WORKLOADS.get(name)
    if gen is None:
        raise WorkloadError(
            f"unknown workload {name!r}; have {workload_names()}")
    params = dict(getattr(cfg, "workload_params", ()) or ())
    stream = "scale" if name == "baseline" else f"workload:{name}"
    # Imported here, not at module level: a shard worker unpickles this
    # module's profiles but never draws, so it need not load numpy.
    from ..sim.rng import RandomStreams
    rng = RandomStreams(cfg.random_seed).stream(stream)
    return gen(rng, cfg, list(admitted_requests), params)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@workload("baseline")
def _baseline(rng, cfg, requests, params) -> list[SessionProfile]:
    """The historical SAP tide: every service bursts once; a seeded
    fraction bursts past the scale-up threshold. Exactly four draws per
    admitted service, in admission order — the original determinism
    contract, preserved verbatim."""
    duration = cfg.duration_s
    profiles = []
    for i, request in enumerate(requests):
        elastic = rng.random() < cfg.elastic_fraction
        peak_sessions = (int(rng.uniform(100, 150)) if elastic
                         else int(rng.uniform(40, 70)))
        start_s = rng.uniform(0.05, 0.4) * duration
        hold_s = rng.uniform(0.15, 0.3) * duration
        # Only services that burst past the scale-up threshold drain below
        # the scale-down threshold afterwards; a service already at its
        # minimum has nothing to release, and parking it under the
        # threshold would just no-op the down rule every evaluation.
        drain_level = 10 if elastic else 30
        profiles.append(SessionProfile(
            service_index=i, service_id=request.service_id,
            tenant=request.tenant, site=request.site,
            peak_sessions=peak_sessions, start_s=start_s, hold_s=hold_s,
            drain_level=drain_level))
    return profiles


@workload("diurnal", "load", "cycles", "steps", "jitter")
def _diurnal(rng, cfg, requests, params) -> list[SessionProfile]:
    """Day-curve sessions: a clipped sinusoid over a quiet base, with
    per-service phase and amplitude jitter. ``load`` fixes the time-averaged
    offered sessions per service at ``load * LOAD_UNIT`` exactly (up to
    integer rounding) — the rate-conservation property the tests assert.

    Params: ``load`` (default 0.6), ``cycles`` per run (default 1),
    ``steps`` schedule resolution (default 24), ``jitter`` phase spread
    (default 0.15). Two draws per service.
    """
    load = float(params.get("load", 0.6))
    cycles = float(params.get("cycles", 1.0))
    steps = int(params.get("steps", 24))
    jitter = float(params.get("jitter", 0.15))
    if load < 0 or steps < 2:
        raise WorkloadError("diurnal: need load >= 0 and steps >= 2")
    duration = cfg.duration_s
    target = load * LOAD_UNIT
    base = 0.25     # floor fraction: the valley never goes fully idle
    profiles = []
    for i, request in enumerate(requests):
        phase = rng.uniform(-jitter, jitter)
        amplitude = rng.uniform(0.85, 1.15)
        raw = [base + amplitude * max(
                   0.0, math.sin(2.0 * math.pi * (cycles * k / steps + phase)))
               for k in range(steps)]
        factor = target / (sum(raw) / steps) if target > 0 else 0.0
        schedule = tuple((k * duration / steps, int(round(level * factor)))
                         for k, level in enumerate(raw))
        profiles.append(SessionProfile(
            service_index=i, service_id=request.service_id,
            tenant=request.tenant, site=request.site,
            peak_sessions=max(level for _at, level in schedule),
            start_s=0.0, hold_s=0.0, drain_level=30, schedule=schedule))
    return profiles


@workload("flash-crowd", "load", "crowd_fraction", "at", "spread")
def _flash_crowd(rng, cfg, requests, params) -> list[SessionProfile]:
    """A sudden synchronized spike: a seeded fraction of services jumps
    from the quiet baseline to well past the scale-up threshold at nearly
    the same instant, holds, drains below the scale-down threshold, and
    settles back — the thundering-herd shape the admission and elasticity
    layers are judged by.

    Params: ``load`` quiet level fraction (default 0.3 — i.e. the classic
    30-session baseline), ``crowd_fraction`` (default 0.5), ``at`` crowd
    onset as a run fraction (default 0.35), ``spread`` onset jitter as a
    run fraction (default 0.02). Four draws per service.
    """
    load = float(params.get("load", 0.3))
    crowd_fraction = float(params.get("crowd_fraction", 0.5))
    at_frac = float(params.get("at", 0.35))
    spread = float(params.get("spread", 0.02))
    duration = cfg.duration_s
    # The quiet level must sit between the thresholds (20, 80): below 80 so
    # the mere baseline never scales up, at or above 20 so it never drains.
    quiet = int(round(load * LOAD_UNIT))
    quiet = max(20, min(quiet, 75))
    relax_s = 6.0 * cfg.monitor_period_s   # drain dwell: lets the down rule fire
    profiles = []
    for i, request in enumerate(requests):
        member = rng.random() < crowd_fraction
        spike = int(rng.uniform(120, 180))
        onset = (at_frac + rng.uniform(0.0, spread)) * duration
        hold_s = rng.uniform(0.08, 0.15) * duration
        if member:
            schedule = ((0.0, quiet),
                        (onset, spike),
                        (onset + hold_s, 10),
                        (min(onset + hold_s + relax_s, duration), quiet))
            peak = spike
        else:
            schedule = ((0.0, quiet),)
            peak = quiet
        profiles.append(SessionProfile(
            service_index=i, service_id=request.service_id,
            tenant=request.tenant, site=request.site,
            peak_sessions=peak, start_s=onset, hold_s=hold_s,
            drain_level=10 if member else quiet, schedule=schedule))
    return profiles


@workload("heavy-tail", "load", "alpha", "sigma")
def _heavy_tail(rng, cfg, requests, params) -> list[SessionProfile]:
    """Heavy-tailed session lengths: each service runs one active period
    whose duration is Pareto(``alpha``) (the untruncated draw is kept in
    ``hold_s`` for tail-index estimation) and whose intensity is
    log-normal. Levels are normalised post-hoc so the federation-wide
    offered load matches ``load * LOAD_UNIT`` sessions per service.

    Params: ``load`` (default 0.5), ``alpha`` tail index (default 1.5),
    ``sigma`` log-normal shape (default 0.75). Three draws per service.
    """
    load = float(params.get("load", 0.5))
    alpha = float(params.get("alpha", 1.5))
    sigma = float(params.get("sigma", 0.75))
    if alpha <= 0:
        raise WorkloadError("heavy-tail: alpha must be positive")
    duration = cfg.duration_s
    xm = max(2.0 * cfg.monitor_period_s, 0.02 * duration)   # Pareto scale
    drawn = []
    for request in requests:
        start_s = rng.uniform(0.0, 0.5) * duration
        u = rng.random()
        length_s = xm * (1.0 - u) ** (-1.0 / alpha)
        intensity = rng.lognormal(0.0, sigma)
        drawn.append((request, start_s, length_s, intensity))
    # Global normalisation: scale intensities so total session-seconds hit
    # the configured offered load — a pure function of the draws above.
    raw_total = sum(intensity * min(length_s, duration - start_s)
                    for _r, start_s, length_s, intensity in drawn)
    target_total = load * LOAD_UNIT * len(requests) * duration
    factor = target_total / raw_total if raw_total > 0 else 0.0
    profiles = []
    for i, (request, start_s, length_s, intensity) in enumerate(drawn):
        level = max(1, int(round(intensity * factor)))
        end_s = min(start_s + length_s, duration)
        schedule = ((0.0, 0), (start_s, level), (end_s, 0))
        profiles.append(SessionProfile(
            service_index=i, service_id=request.service_id,
            tenant=request.tenant, site=request.site,
            peak_sessions=level, start_s=start_s, hold_s=length_s,
            drain_level=0, schedule=schedule))
    return profiles


@workload("tenant-mix", "heavy_tenants", "load")
def _tenant_mix(rng, cfg, requests, params) -> list[SessionProfile]:
    """Asymmetric tenants: the first ``heavy_tenants`` tenants run bursty
    elastic tides (the baseline's elastic branch), the rest hold a flat
    quiet level — the mix that exercises weighted-round-robin fairness and
    per-tenant quota accounting under unequal demand.

    Params: ``heavy_tenants`` (default ``max(1, tenants // 4)``),
    ``load`` flat level fraction for light tenants (default 0.3).
    Three draws per service.
    """
    heavy = int(params.get("heavy_tenants", max(1, cfg.tenants // 4)))
    load = float(params.get("load", 0.3))
    quiet = max(20, min(int(round(load * LOAD_UNIT)), 75))
    heavy_names = {f"tenant-{t}" for t in range(heavy)}
    duration = cfg.duration_s
    profiles = []
    for i, request in enumerate(requests):
        peak = int(rng.uniform(100, 150))
        start_s = rng.uniform(0.05, 0.4) * duration
        hold_s = rng.uniform(0.15, 0.3) * duration
        if request.tenant in heavy_names:
            profiles.append(SessionProfile(
                service_index=i, service_id=request.service_id,
                tenant=request.tenant, site=request.site,
                peak_sessions=peak, start_s=start_s, hold_s=hold_s,
                drain_level=10))
        else:
            profiles.append(SessionProfile(
                service_index=i, service_id=request.service_id,
                tenant=request.tenant, site=request.site,
                peak_sessions=quiet, start_s=0.0, hold_s=0.0,
                drain_level=quiet, schedule=((0.0, quiet),)))
    return profiles
