"""Reproducible experiment runner: named scenarios × parameter sweeps.

``python -m repro experiment <name> --sweep sites=4,16 load=0.5,0.9
--seed N`` expands the sweep into a parameter grid, runs every cell
through the real control plane (:func:`repro.experiments.scale.run_scale`,
optionally sharded with ``--procs``), checks the §16 invariants after each
cell, and writes one JSON line per cell plus a summary table.

Determinism contract: the JSONL carries only fields that are a pure
function of ``(scenario, cell parameters, seed)`` — no wall-clock, no RSS
— so re-running the same command yields a byte-identical file. Wall time
and memory stay on the human-facing summary table.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ..experiments.scale import ScaleConfig, ScaleReport, run_scale
from ..obs.recorder import dump_flight
from ..obs.report import _parse_value
from .chaos import (
    ChaosEvent,
    HostCrash,
    NetworkPartition,
    SiteOutage,
    SpotPreemption,
    event_to_dict,
)
from .workloads import WorkloadError

__all__ = [
    "Scenario",
    "SCENARIOS",
    "CellResult",
    "ExperimentResult",
    "parse_sweep",
    "run_experiment",
    "scenario_names",
]


# ---------------------------------------------------------------------------
# Scenario definitions
# ---------------------------------------------------------------------------

#: Modest defaults so a full sweep finishes in seconds; ``--sweep`` and
#: CLI flags override any of them.
_BASE = (
    ("sites", 4),
    ("services", 32),
    ("hours", 0.5),
    ("tenants", 8),
    ("settle_s", 600.0),
)


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible experiment: a workload generator, optional
    chaos schedule, and base configuration overrides."""

    name: str
    description: str
    workload: str = "baseline"
    workload_params: tuple = ()
    base: tuple = _BASE
    #: builds the chaos schedule once the cell's config is known — event
    #: times are usually fractions of the configured duration
    chaos: Optional[Callable[[ScaleConfig], tuple]] = None

    def configure(self, overrides: dict) -> ScaleConfig:
        """Materialise one sweep cell into a runnable config."""
        fields = {f.name for f in dataclasses.fields(ScaleConfig)}
        kwargs = dict(self.base)
        params = dict(self.workload_params)
        for key, value in overrides.items():
            key = _ALIASES.get(key, key)
            if key in fields:
                kwargs[key] = value
            else:
                params[key] = value
        kwargs["workload"] = self.workload
        kwargs["workload_params"] = tuple(sorted(params.items()))
        kwargs["check_invariants"] = True
        cfg = ScaleConfig(**kwargs)
        if self.chaos is not None:
            cfg = dataclasses.replace(cfg, chaos=tuple(self.chaos(cfg)))
        return cfg


#: sweep-key spellings that differ from the ScaleConfig field name
_ALIASES = {"seed": "random_seed", "epoch": "epoch_s", "settle": "settle_s"}


def _off_grid(cfg: ScaleConfig, fraction: float) -> float:
    """An event time at roughly ``fraction`` of the run that avoids the
    monitor/census grid: same-instant ordering against a periodic sampler
    is exactly the non-determinism the oracle check would flag."""
    period = cfg.monitor_period_s
    return int(fraction * cfg.duration_s / period) * period + period / 4


def _outage(cfg: ScaleConfig) -> tuple[ChaosEvent, ...]:
    down = tuple(f"site-{s}" for s in range(min(2, cfg.sites)))
    return (SiteOutage(at_s=_off_grid(cfg, 0.45), sites=down,
                       recover_after_s=6 * cfg.monitor_period_s),)


def _churn(cfg: ScaleConfig) -> tuple[ChaosEvent, ...]:
    events = []
    for wave, fraction in enumerate((0.3, 0.5, 0.7)):
        site = f"site-{wave % cfg.sites}"
        events.append(SpotPreemption(at_s=_off_grid(cfg, fraction),
                                     site=site, count=2))
    return tuple(events)


def _crash(cfg: ScaleConfig) -> tuple[ChaosEvent, ...]:
    return (HostCrash(at_s=_off_grid(cfg, 0.4), site="site-0",
                      recover_after_s=6 * cfg.monitor_period_s),)


def _split(cfg: ScaleConfig) -> tuple[ChaosEvent, ...]:
    return (NetworkPartition(at_s=_off_grid(cfg, 0.35),
                             sites=(f"site-{cfg.sites - 1}",),
                             heal_after_s=8 * cfg.monitor_period_s),)


SCENARIOS: dict[str, Scenario] = {}


def _scenario(scn: Scenario) -> Scenario:
    SCENARIOS[scn.name] = scn
    return scn


_scenario(Scenario(
    "baseline",
    "classic SAP session tides, no chaos — the PR-5 harness workload"))
_scenario(Scenario(
    "diurnal",
    "day/night sinusoid with per-service phase jitter",
    workload="diurnal"))
_scenario(Scenario(
    "flash-crowd",
    "quiet fleet, then half the services spike together",
    workload="flash-crowd"))
_scenario(Scenario(
    "heavy-tail",
    "Pareto session lengths, log-normal intensities",
    workload="heavy-tail"))
_scenario(Scenario(
    "tenant-mix",
    "a few heavy elastic tenants over a flat long tail",
    workload="tenant-mix"))
_scenario(Scenario(
    "site-outage",
    "correlated outage of two sites mid flash crowd, then recovery",
    workload="flash-crowd", chaos=_outage))
_scenario(Scenario(
    "spot-churn",
    "waves of spot preemptions against the baseline tides",
    chaos=_churn))
_scenario(Scenario(
    "host-crash",
    "one host dies under diurnal load and comes back",
    workload="diurnal", chaos=_crash))
_scenario(Scenario(
    "partition",
    "one site drops off the federation, then heals (procs=1 only)",
    workload="diurnal", chaos=_split))


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# Sweep grammar
# ---------------------------------------------------------------------------

def parse_sweep(tokens) -> list[dict]:
    """Expand ``["sites=4,16", "load=0.5,0.9"]`` into the grid's cells,
    in deterministic row-major order (first key varies slowest)."""
    axes: list[tuple[str, list]] = []
    for token in tokens:
        key, eq, raw = token.partition("=")
        if not eq or not key or not raw:
            raise WorkloadError(
                f"sweep term {token!r} is not of the form key=v1,v2,...")
        axes.append((key, [_parse_value(v) for v in raw.split(",")]))
    if not axes:
        return [{}]
    keys = [key for key, _values in axes]
    if len(set(keys)) != len(keys):
        raise WorkloadError(f"duplicate sweep key in {keys}")
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(v for _k, v in axes))]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """One sweep cell: its parameters, the harness report, pass/fail."""

    params: tuple
    report: ScaleReport
    #: position in the sweep grid — the pointer from the summary table
    #: and the JSONL back to the failing cell
    index: int = 0
    #: where this cell's flight-recorder dump landed (failing cells with
    #: an out_dir only)
    flight_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.report.violations

    def record(self, scenario: Scenario, cfg: ScaleConfig) -> dict:
        """The cell's JSONL record — deterministic fields only (the flight
        dump is referenced by file *name*: its directory varies with
        ``--out``, its name is a pure function of scenario/seed/cell)."""
        return {
            "scenario": scenario.name,
            "workload": cfg.workload,
            "workload_params": dict(cfg.workload_params),
            "seed": cfg.random_seed,
            "cell": dict(self.params),
            "cell_index": self.index,
            "sites": cfg.sites,
            "services": cfg.services,
            "hours": cfg.hours,
            "procs": cfg.procs,
            "chaos": [event_to_dict(e) for e in cfg.chaos],
            "admitted": self.report.admitted,
            "queued": self.report.queued,
            "rejected": self.report.rejected,
            "peak_vms": self.report.peak_vms,
            "final_vms": self.report.final_vms,
            "peak_queue_depth": self.report.peak_queue_depth,
            "site_fleets": [list(pair) for pair in self.report.site_fleets],
            "violations": list(self.report.violations),
            "audit_findings": self.report.audit_findings,
            "audit_violations": list(self.report.audit_violations),
            "flight_recorder": (Path(self.flight_path).name
                                if self.flight_path else None),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ExperimentResult:
    scenario: str
    seed: int
    cells: tuple
    jsonl_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def render(self) -> str:
        header = (f"{'cell':<40} {'adm':>4} {'que':>4} {'rej':>4} "
                  f"{'peak':>5} {'final':>5} {'viol':>4}  verdict")
        lines = [f"experiment {self.scenario} (seed {self.seed}, "
                 f"{len(self.cells)} cell(s))", header, "-" * len(header)]
        for cell in self.cells:
            label = " ".join(f"{k}={v}" for k, v in cell.params) or "-"
            r = cell.report
            lines.append(
                f"{label:<40} {r.admitted:>4} {r.queued:>4} "
                f"{r.rejected:>4} {r.peak_vms:>5} {r.final_vms:>5} "
                f"{len(r.violations):>4}  "
                f"{'ok' if cell.ok else 'INVARIANT VIOLATION'}")
        for cell in self.cells:
            suffix = (f" (flight: {cell.flight_path})"
                      if cell.flight_path else "")
            for violation in cell.report.violations:
                lines.append(f"  !! [cell {cell.index}] {violation}{suffix}")
        if self.jsonl_path:
            lines.append(f"jsonl: {self.jsonl_path}")
        return "\n".join(lines)


def run_experiment(name: str, *, sweep=(), seed: Optional[int] = None,
                   procs: Optional[int] = None,
                   hours: Optional[float] = None,
                   out_dir: Optional[str] = "runs",
                   progress=None) -> ExperimentResult:
    """Run every cell of ``name``'s sweep grid and check invariants.

    Returns the per-cell results; when ``out_dir`` is set, also writes
    ``<out_dir>/<name>-seed<seed>.jsonl`` with one deterministic record
    per cell (same command ⇒ byte-identical file).
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; "
            f"one of {', '.join(scenario_names())}") from None
    say = progress or (lambda _msg: None)

    cells = parse_sweep(sweep)
    forced = {}
    if seed is not None:
        forced["seed"] = seed
    if procs is not None:
        forced["procs"] = procs
    if hours is not None:
        forced["hours"] = hours

    # Configure every cell before running any, so a bad value anywhere in
    # the grid fails fast, naming its cell.
    configured = []
    for index, cell in enumerate(cells):
        merged = {**cell, **{k: v for k, v in forced.items()
                             if k not in cell}}
        label = " ".join(f"{k}={v}" for k, v in sorted(merged.items()))
        try:
            cfg = scenario.configure(merged)
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"cell {index} ({label or 'defaults'}): {exc}") from exc
        configured.append((merged, label, cfg))

    directory = None
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)

    # The grid always has a cell; the first one's seed names the run.
    run_seed = configured[0][2].random_seed
    results = []
    records = []
    for index, (merged, label, cfg) in enumerate(configured):
        say(f"[{index + 1}/{len(cells)}] {name} {label or '(defaults)'}")
        report = run_scale(cfg)
        flight_path = None
        if report.flight and directory is not None:
            # Post-mortem for the failing cell: the last trace records
            # before the violation, next to the JSONL it is named in.
            flight_path = dump_flight(
                directory / (f"{name}-seed{cfg.random_seed}"
                             f"-cell{index}.flight.jsonl"),
                report.flight,
                reason="; ".join(report.violations)
                       or "time-constraint violations")
        result = CellResult(params=tuple(sorted(merged.items())),
                            report=report, index=index,
                            flight_path=flight_path)
        results.append(result)
        records.append(result.record(scenario, cfg))
        status = "ok" if result.ok else "INVARIANT VIOLATION"
        say(f"    admitted={report.admitted} peak_vms={report.peak_vms} "
            f"wall={report.wall_s:.1f}s {status}")

    jsonl_path = None
    if directory is not None:
        path = directory / f"{name}-seed{run_seed}.jsonl"
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        jsonl_path = str(path)

    return ExperimentResult(scenario=name, seed=run_seed,
                            cells=tuple(results), jsonl_path=jsonl_path)
