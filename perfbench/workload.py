"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workload.py --workload federation-1p \\
        --seed 0 [--trace | --setup-only] [--size tiny]

Runs the workload once and prints one JSON record as its last line: the
phase timings, simulated seconds, peak RSS, attempted/failed operations,
the correctness fingerprint and any failed seed-independent check, plus
the per-layer ledger when ``--trace`` is given. ``run.py`` starts one of
these per repetition so that every repetition's ``VmHWM`` is its own.

Every repetition also records how fast the host ran meanwhile: a
``HostClock`` in this process and in each spawn worker times a fixed
reference loop every 20 ms, and the record carries the harmonic mean of
those durations (``ref_hmean_s``).

``--setup-only`` stops where the measured simulation would start and
prints ``setup_s`` and the host clock only: extra set-up samples at a
fraction of a repetition's cost.

The ``__main__`` guard is load-bearing: ``federation-2p`` starts spawn
workers, and each of them re-imports this file as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import heapq
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from multiprocessing import resource_tracker
from statistics import harmonic_mean
from time import perf_counter

WORKLOADS = ("paper-week", "federation-1p", "federation-2p")
SIZES = ("full", "tiny")

#: Workload seeds are offsets from the configs' own defaults, so seed 0 is
#: exactly the paper's evaluation and the ROADMAP reference federation.
POLYMORPH_SEED = 42
WEEK_SEED = 7
SCALE_SEED = 2010


class SetupDone(Exception):
    """Raised from run_scale's progress callback to stop a set-up-only
    repetition before the simulation (and, at procs=2, any worker)
    starts."""


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Host clock: the speed of the host, sampled throughout the repetition
# ---------------------------------------------------------------------------

def reference_loop(n: int = 600) -> int:
    """A fixed slice of interpreter work shaped like the kernel's: a
    bounded event heap, a dict of counters and integer arithmetic."""
    heap: list = []
    counts: dict = {}
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        counts[i & 63] = counts.get(i & 63, 0) + i
        if len(heap) > 32:
            heapq.heappop(heap)
    return len(heap) + len(counts)


class HostClock:
    """Times ``reference_loop`` from a wall-clock interval timer, so the
    samples interleave with the workload on the same CPU and at the same
    moments (about 1.5% of the wall-clock).

    The samples are spread evenly over wall time, so the harmonic mean of
    their durations is the loop's duration at the host's mean speed over
    the repetition: a repetition that met a slow stretch of the host is
    scaled back by how much slower the loop ran meanwhile, and a sample
    stretched by descheduling weighs almost nothing.
    """

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - t0)

    def start(self) -> "HostClock":
        reference_loop()  # warm: the first call allocates the code's caches
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


#: spawn workers inherit the environment: a worker started while this
#: names a directory runs its own HostClock and leaves its samples there
CLOCK_DIR_ENV = "PERFBENCH_CLOCK_DIR"


def clock_in_worker() -> None:
    directory = os.environ.get(CLOCK_DIR_ENV)
    if directory is None:
        return
    clock = HostClock().start()

    def dump() -> None:
        clock.stop()
        Path(directory, f"{os.getpid()}.json").write_text(
            json.dumps(clock.samples))
    atexit.register(dump)


def host_record(clock: HostClock, clock_dir: Path) -> dict:
    """The harmonic mean of this process's and its workers' samples."""
    samples = list(clock.samples)
    processes = 1
    for path in clock_dir.glob("*.json"):
        samples += json.loads(path.read_text())
        processes += 1
    return {"ref_hmean_s": harmonic_mean(samples),
            "ref_samples": len(samples), "ref_processes": processes}


# ---------------------------------------------------------------------------
# paper-week: Table 3 (dedicated + elastic) and the §6.1.4 week
# ---------------------------------------------------------------------------

def paper_week(seed: int, size: str, t0: float,
               setup_only: bool = False) -> dict:
    from repro.experiments.polymorph import (
        TestbedConfig,
        run_dedicated,
        run_elastic,
        table3,
    )
    from repro.experiments.weekly import WEEK_S, WeeklyConfig, run_week
    from repro.grid import PolymorphSearchConfig
    from repro.obs.audit import TimeConstraintAuditor, audit_violation_strings
    from repro.sim import read_peak_rss_kb

    if size == "tiny":
        # A slower rule period (30 s instead of 2.5 s) keeps the 7-day
        # week to about a second.
        testbed = TestbedConfig(time_constraint_ms=60_000.0)
        search = PolymorphSearchConfig(seed_durations_s=(300.0, 460.0),
                                       refinements_per_seed=12,
                                       random_seed=POLYMORPH_SEED + seed)
        week = WeeklyConfig(idle_days=(1, 2, 3, 4, 5, 6),
                            window_end_s=8 * 3600.0, base_workload=search,
                            random_seed=WEEK_SEED + seed)
    else:
        testbed = TestbedConfig()
        search = PolymorphSearchConfig(random_seed=POLYMORPH_SEED + seed)
        week = WeeklyConfig(random_seed=WEEK_SEED + seed)

    t_run = perf_counter()
    if setup_only:
        return {"setup_s": t_run - t0}
    dedicated = run_dedicated(search, testbed)
    elastic = run_elastic(search, testbed)
    weekly = run_week(week, testbed)
    t_report = perf_counter()
    rows = table3(dedicated, elastic)
    audit = TimeConstraintAuditor(elastic.trace).audit()
    late = audit_violation_strings(audit.findings)
    t_end = perf_counter()

    week_jobs = sum(s.jobs for s in weekly.searches)
    table_jobs = 2 * search.total_jobs
    unfinished = table_jobs - dedicated.jobs_completed - elastic.jobs_completed
    elastic_end = (elastic.run_start + elastic.shutdown_time_s
                   if elastic.shutdown_time_s is not None else elastic.run_end)
    fingerprint = {
        "table3": {k: None if v is None else round(v, 6)
                   for k, v in rows.items()},
        "week_saving": round(weekly.saving, 6),
        "week_searches": weekly.search_count,
        "jobs_completed": dedicated.jobs_completed + elastic.jobs_completed
        + week_jobs,
        "audit_firings": len(audit.findings),
        "late": len(late),
    }
    problems = []
    if unfinished:
        problems.append(f"{unfinished} Table 3 job(s) unfinished")
    if late:
        problems.append(f"{len(late)} late rule firing(s)")
    if elastic.shutdown_time_s is None:
        problems.append("elastic cluster never fully deallocated")
    if size == "full":
        problems += table3_shape(rows, weekly.saving)
    return {
        "wall_s": t_end - t0,
        "setup_s": t_run - t0,
        "phase": {"setup_s": t_run - t0, "warmup_s": 0.0,
                  "run_s": t_report - t_run, "report_s": t_end - t_report},
        "sim_s": dedicated.run_end + elastic_end + WEEK_S,
        "peak_rss_mb": read_peak_rss_kb() / 1024.0,
        "attempted": table_jobs + week_jobs,
        "failed": unfinished + len(late),
        "fingerprint": dict(fingerprint, digest=digest(fingerprint)),
        "problems": problems,
        "counts": {"grid.jobs_completed": fingerprint["jobs_completed"]},
    }


def table3_shape(rows: dict, week_saving: float) -> list[str]:
    """The DESIGN.md §4 acceptance shape, which holds on every seed."""
    problems = []
    extra = rows["extra_run_time"]
    saving = rows["resource_usage_saving"]
    trail = rows["cloud_shutdown_s"] - rows["cloud_turnaround_s"]
    if not 0.0 < extra <= 0.10:
        problems.append(f"extra run time {extra:.2%} outside (0, 10%]")
    if not 0.30 <= saving <= 0.40:
        problems.append(f"resource saving {saving:.2%} outside [30%, 40%]")
    if not 0.0 < trail <= 1000.0:
        problems.append(f"shutdown trails turn-around by {trail:.0f} s")
    if not 0.65 <= week_saving <= 0.75:
        problems.append(f"week saving {week_saving:.2%} outside [65%, 75%]")
    return problems


# ---------------------------------------------------------------------------
# federation-1p / federation-2p: repro scale 20 × 1000 × 1 h
# ---------------------------------------------------------------------------

def federation(seed: int, size: str, procs: int, t0: float,
               ledger=None, setup_only: bool = False) -> dict:
    from repro.experiments.scale import WARMUP_S, ScaleConfig, run_scale

    if size == "tiny":
        cfg = ScaleConfig(sites=4, services=60, hours=0.25, epoch_s=300.0,
                          procs=procs, check_invariants=True,
                          random_seed=SCALE_SEED + seed)
    else:
        cfg = ScaleConfig(sites=20, services=1000, hours=1.0, procs=procs,
                          check_invariants=True,
                          random_seed=SCALE_SEED + seed)
    # run_scale announces each phase through its progress callback; the
    # first word of each message names the phase that begins.
    marks: dict[str, float] = {}

    def progress(message: str) -> None:
        phase = message.split(" ", 1)[0]
        marks.setdefault(phase, perf_counter())
        if setup_only and phase == "running":
            raise SetupDone

    try:
        report = run_scale(cfg, progress=progress)
    except SetupDone:
        return {"setup_s": marks["running"] - t0}
    t_end = perf_counter()

    run_start = marks["running"]
    if procs == 1:
        setup_end, run_end = marks["deploying"], marks["checking"]
    else:
        # Pool creation, spawn and the workers' build and warm-up land in
        # the first epoch; the merge after the last barrier is only
        # visible to the traced run.
        setup_end = run_start
        run_end = ledger.stopped_at if ledger is not None else t_end
    outcomes = report.decision_outcomes()
    deploy_failures = sum(
        value for key, value in report.metrics.items()
        if key.startswith(("cloud.veem.placement_refused",
                           "cloud.veem.vm_failures")))
    late = len(report.audit_violations)
    fingerprint = {
        "admitted": report.admitted,
        "peak_vms": report.peak_vms,
        "final_vms": report.final_vms,
        "audit_firings": report.audit_findings,
        "late": late,
    }
    problems = []
    decided = report.admitted + report.queued + report.rejected
    if decided != cfg.services:
        problems.append(f"{cfg.services - decided} request(s) undecided")
    if late:
        problems.append(f"{late} late rule firing(s)")
    if report.violations:
        problems.append(f"{len(report.violations)} invariant violation(s)")
    if report.final_vms != report.admitted:
        problems.append(f"final fleet {report.final_vms} != "
                        f"{report.admitted} admitted services")
    return {
        "wall_s": t_end - t0,
        "setup_s": run_start - t0,
        "phase": {"setup_s": setup_end - t0,
                  "warmup_s": run_start - setup_end,
                  "run_s": run_end - run_start,
                  "report_s": t_end - run_end},
        "sim_s": cfg.duration_s + cfg.settle_s - WARMUP_S,
        "peak_rss_mb": report.peak_rss_kb / 1024.0,
        "attempted": cfg.services,
        "failed": report.rejected + report.queued + int(deploy_failures)
        + late,
        "fingerprint": dict(fingerprint, digest=digest(outcomes)),
        "problems": problems,
        "counts": {f"control.{name}": report.metrics.get(
            f"control.plane.{name}", 0)
            for name in ("queued", "rejected", "solver_rescued")},
    }


def run_once(workload: str, seed: int, size: str = "full",
             trace: bool = False, setup_only: bool = False) -> dict:
    """Run one repetition and return its record."""
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    clock_dir = Path(tempfile.mkdtemp(prefix="clock-", dir=out_dir))
    os.environ[CLOCK_DIR_ENV] = str(clock_dir)
    clock = HostClock().start()
    t0 = perf_counter()
    ledger = None
    if trace:
        from ledger import Ledger
        ledger = Ledger().install()
    try:
        if workload == "paper-week":
            record = paper_week(seed, size, t0, setup_only)
        else:
            procs = 2 if workload == "federation-2p" else 1
            record = federation(seed, size, procs, t0, ledger, setup_only)
    finally:
        clock.stop()
        if ledger is not None:
            ledger.uninstall()
        host = host_record(clock, clock_dir)
        shutil.rmtree(clock_dir)
    record.update(host)
    if ledger is not None:
        # The phases and rows cover the same interval: workload start to
        # the end of its report phase.
        traced_wall = record["wall_s"]
        record["ledger"] = ledger.metrics()
        record["ledger"]["phase.unattributed_s"] = (traced_wall
                                                    - ledger.attributed_s)
        record["ledger"]["outer_s"] = ledger.outer_s
        record["ledger"]["attributed_s"] = ledger.attributed_s
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.size, args.trace,
                      args.setup_only)
    # Spawning workers starts multiprocessing's resource tracker; stop it
    # and wait for it, so no process outlives the repetition.
    resource_tracker._resource_tracker._stop()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__mp_main__":
    clock_in_worker()

if __name__ == "__main__":
    sys.exit(main())
