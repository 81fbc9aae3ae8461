"""The §6.1.4 weekly-usage estimate.

"If we consider the overall use of the application over the course of a
randomly selected week on a fully dedicated environment where resources are
continuously available, even more significant cost savings will exist.
Examining logs of searches conducted during this period ... we have
estimated that overall resource consumption would drop by 69.18%, due to the
fact that searches are not run continuously; no searches were run on two
days of the week, and searches, though of varying size, were run only over a
portion of the day, leaving resources unused for considerable amounts of
time."

This module simulates exactly that week on the full stack: a service
deployed once; five active days whose working window is filled with searches
of varying size, two idle days; the elasticity rules allocate and completely
deallocate the execution cluster around every search. The dedicated baseline
holds 16 nodes allocated continuously for the whole week.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..grid.polymorph import PolymorphSearchConfig, build_polymorph_workflow
from ..grid.workflow import WorkflowContext
from ..sim.kernel import Environment
from ..sim.rng import RandomStreams
from .polymorph import TestbedConfig, deploy_elastic

__all__ = ["WeeklyConfig", "SearchRecord", "WeeklyResult", "run_week"]

DAY_S = 24 * 3600.0
WEEK_S = 7 * DAY_S


@dataclass(frozen=True)
class WeeklyConfig:
    """Shape of the logged week the paper describes."""

    #: day indices (0–6) with no searches at all
    idle_days: tuple[int, ...] = (2, 6)
    #: daily working window within which searches are launched
    window_start_s: float = 6 * 3600.0     # 06:00
    window_end_s: float = 21 * 3600.0      # 21:00
    #: size variation: refinements-per-seed scale factors drawn uniformly
    min_scale: float = 0.5
    max_scale: float = 1.5
    #: gap between the end of one search and the start of the next (s)
    inter_search_gap_s: float = 600.0
    random_seed: int = 7
    #: base workload (the Table 3 search)
    base_workload: PolymorphSearchConfig = field(
        default_factory=PolymorphSearchConfig)

    def __post_init__(self) -> None:
        if not 0 < self.window_start_s < self.window_end_s <= DAY_S:
            raise ValueError("bad daily window")
        if not 0 < self.min_scale <= self.max_scale:
            raise ValueError("bad scale range")
        if any(not 0 <= d <= 6 for d in self.idle_days):
            raise ValueError("idle days must be in 0..6")


@dataclass
class SearchRecord:
    """One search of the week, as the harness logged it."""

    day: int
    started_at: float
    finished_at: float
    scale: float
    jobs: int

    @property
    def turnaround_s(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class WeeklyResult:
    """Aggregates for the §6.1.4 comparison."""

    searches: list[SearchRecord]
    #: execution-node-seconds actually allocated over the week (elastic)
    elastic_node_seconds: float
    #: the always-on baseline: 16 nodes for the full week
    dedicated_node_seconds: float

    @property
    def saving(self) -> float:
        """The paper's "overall resource consumption would drop by" figure."""
        return 1.0 - self.elastic_node_seconds / self.dedicated_node_seconds

    @property
    def search_count(self) -> int:
        return len(self.searches)

    @property
    def busy_fraction(self) -> float:
        """Fraction of the week during which a search was in progress."""
        busy = sum(s.turnaround_s for s in self.searches)
        return busy / WEEK_S


def _scaled_workload(base: PolymorphSearchConfig, scale: float,
                     seed: int) -> PolymorphSearchConfig:
    """Vary a search's size: refinement count and seed-job durations scale
    together (a larger molecule means longer coarse search and more
    minimisations)."""
    return replace(
        base,
        seed_durations_s=tuple(d * scale for d in base.seed_durations_s),
        refinements_per_seed=max(1, round(base.refinements_per_seed * scale)),
        random_seed=seed,
    )


def run_week(cfg: Optional[WeeklyConfig] = None,
             testbed: Optional[TestbedConfig] = None) -> WeeklyResult:
    """Simulate the whole week on the elastic stack."""
    cfg = cfg or WeeklyConfig()
    testbed = testbed or TestbedConfig()
    rng = RandomStreams(cfg.random_seed).stream("weekly")
    env = Environment()
    _sm, service, scheduler = deploy_elastic(env, testbed, "polymorph-week")

    week_start = env.now
    searches: list[SearchRecord] = []

    def week_process():
        search_seq = 0
        for day in range(7):
            if day in cfg.idle_days:
                continue
            window_open = week_start + day * DAY_S + cfg.window_start_s
            window_close = week_start + day * DAY_S + cfg.window_end_s
            if env.now < window_open:
                yield env.timeout(window_open - env.now)
            while env.now < window_close:
                search_seq += 1
                scale = float(rng.uniform(cfg.min_scale, cfg.max_scale))
                workload = _scaled_workload(
                    cfg.base_workload, scale, seed=1000 + search_seq)
                run = build_polymorph_workflow(workload)
                ctx = WorkflowContext(env, scheduler)
                started = env.now
                yield run.workflow.start(ctx)
                searches.append(SearchRecord(
                    day=day, started_at=started, finished_at=env.now,
                    scale=scale, jobs=workload.total_jobs,
                ))
                yield env.timeout(cfg.inter_search_gap_s)

    proc = env.process(week_process(), name="weekly-schedule")
    env.run(until=proc)
    # Let the final deallocation complete, then close the week.
    env.run(until=max(env.now, week_start + WEEK_S))

    exec_series = service.lifecycle.accountant.series("exec")
    elastic_node_seconds = (
        exec_series.integral(week_start, week_start + WEEK_S)
        if exec_series is not None else 0.0
    )
    return WeeklyResult(
        searches=searches,
        elastic_node_seconds=elastic_node_seconds,
        dedicated_node_seconds=testbed.max_exec_instances * WEEK_S,
    )
