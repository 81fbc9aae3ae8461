"""End-to-end benchmark: the paper's week and the federation at 1 and 2 procs.

    python3 perfbench/run.py --workload paper-week --seed 0 --seconds 30 \\
        --trace 0

Run from the repository root. Each repetition runs in a fresh interpreter
(``workload.py``) so its peak RSS is its own; repetitions repeat for about
``--seconds`` (at least three untraced, or one untraced and one traced
with ``--trace 1``), after one discarded set-up that compiles and caches
the sources.

Times are reported at reference host speed: each repetition's seconds are
scaled by ``REFERENCE_S`` over the harmonic mean of the reference-loop
samples its host clock took meanwhile (see ``workload.HostClock``). A
shared host slows down for stretches of seconds to minutes; the scaling
takes that out, and the code's own cost stays in.

* ``--trace 0`` reports the end-to-end metrics, each the median over the
  repetitions: ``wall_s``, ``setup_s`` (over the repetitions and the
  set-up-only runs that follow them), ``sim_rate`` and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced repetitions and reports the
  per-layer ledger (see ``ledger.py``) plus ``trace.overhead``, the traced
  wall-clock over the untraced one.

Every repetition is checked: seed-independent properties always, and the
committed fingerprint (``fingerprints.json``) when one exists for the
seed. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
1 when any check fails, and 2, with no JSON, when the sources are missing.
A per-run artefact with every repetition is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-week", "federation-1p", "federation-2p")
#: a repetition is not started unless it can finish well inside the
#: 180-second budget of one benchmark run
RUN_BUDGET_S = 150.0
#: set-up samples behind the ``setup_s`` median: set-up-only runs follow
#: repetitions until a run has this many
SETUP_SAMPLES = 10
#: the reference loop's duration on an unloaded 2.1 GHz Xeon KVM guest:
#: reported seconds are seconds on a host that runs the loop this fast
REFERENCE_S = 0.35e-3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rate": "sim_s/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics read straight from the traced run's ledger
LEDGER_COUNTS = (
    "sim.events", "sim.dead_skipped",
    "monitoring.codec.encode.calls", "monitoring.publish.calls",
    "monitoring.packets_decoded",
    "core.rules.passes", "core.rules.evaluated", "core.rules.firings",
    "core.rules.notify.calls",
    "cloud.veem.submit.calls", "cloud.veem.shutdown.calls",
    "cloud.veem.failed",
    "control.submit.calls",
    "grid.negotiate.dispatches",
    "obs.audit.firings", "obs.trace.records", "obs.trace.spans",
    "sim.shard.epochs",
)
#: per-layer counts the workload reads from its own outputs
RECORD_COUNTS = (
    "control.queued", "control.rejected", "control.solver_rescued",
    "grid.jobs_completed",
)
LEDGER_RATIOS = (
    "monitoring.decode_ratio", "core.rules.fire_ratio", "grid.match_yield",
    "sim.shard.imbalance",
)
#: rows whose self time is also reported as a share of the traced wall
SHARE_ROWS = (
    "sim.dispatch", "grid.negotiate", "monitoring.codec.encode",
    "monitoring.publish", "core.rules.notify", "core.rules",
    "cloud.veem.submit", "cloud.veem.shutdown", "control.submit",
    "obs.audit", "sim.shard.epoch", "sim.shard.merge",
)
PHASES = ("setup_s", "run_s", "report_s", "unattributed_s")

PER_LAYER = {
    **{name: "count" for name in LEDGER_COUNTS + RECORD_COUNTS},
    **{name: "ratio" for name in LEDGER_RATIOS},
    **{f"{row}.share": "%" for row in SHARE_ROWS},
    **{f"phase.{phase}": "s" for phase in PHASES},
    "trace.overhead": "ratio",
    "box.calibration_s": "s",
}


# ---------------------------------------------------------------------------
# Box record
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a box-speed reference that is
    recorded next to every repetition and never gated."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, crashed repetition)."""


def run_rep(root: Path, workload: str, seed: int, size: str,
            trace: bool, timeout_s: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a repetition that overruns is killed
    # together with any worker it spawned.
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} repetition exceeded "
                             f"{timeout_s:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed "
                         f"(exit {proc.returncode}):\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_reps(root: Path, workload: str, seed: int, size: str,
             seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Repeat for about ``seconds``: a repetition starts only if it would
    end less than half a repetition past the deadline. With ``trace``
    untraced and traced repetitions alternate, starting untraced; without,
    a set-up-only run follows each repetition until there are
    ``SETUP_SAMPLES`` set-ups. Returns the repetitions' records and the
    set-up-only runs' records."""
    reps: list[dict] = []
    setups: list[dict] = []
    durations: list[float] = []
    start = perf_counter()
    # Discarded: the first import of a fresh checkout compiles the sources.
    run_rep(root, workload, seed, size, False, RUN_BUDGET_S, setup_only=True)
    while True:
        elapsed = perf_counter() - start
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        enough = (len(untraced) >= 1 and len(traced) >= 1 if trace
                  else len(untraced) >= 3)
        if enough:
            typical = median(durations)
            if (elapsed + typical / 2 >= seconds
                    or elapsed + typical > RUN_BUDGET_S):
                return reps, setups
        traced_next = trace and len(traced) < len(untraced)
        calibration_s = calibrate()
        t0 = perf_counter()
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        record = run_rep(root, workload, seed, size, traced_next,
                         timeout_s=max(RUN_BUDGET_S - elapsed, 30.0))
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        record["traced"] = traced_next
        record["calibration_s"] = calibration_s
        # CPU seconds of the repetition and its workers: beside wall-clock
        # it tells a busy host from slower code.
        record["cpu_s"] = (cpu1.ru_utime - cpu0.ru_utime
                           + cpu1.ru_stime - cpu0.ru_stime)
        reps.append(record)
        if not trace and len(reps) + len(setups) < SETUP_SAMPLES:
            setups.append(run_rep(root, workload, seed, size, False,
                                  timeout_s=max(RUN_BUDGET_S - elapsed, 30.0),
                                  setup_only=True))
        durations.append(perf_counter() - t0)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def fingerprint_key(workload: str) -> str:
    # Both federation workloads decide exactly the same things: the sharded
    # run must reproduce the single-process oracle's fingerprint.
    return "federation" if workload.startswith("federation") else workload


def load_fingerprints(path: Path = HERE / "fingerprints.json") -> dict:
    return json.loads(path.read_text())


def check(reps: list[dict], workload: str, seed: int, size: str,
          fingerprints: dict) -> list[str]:
    """Problems found across the repetitions; empty when all is correct.
    Marks each repetition ``ok`` so its operations can be counted."""
    expected = fingerprints.get(size, {}).get(
        fingerprint_key(workload), {}).get(str(seed))
    first = reps[0]["fingerprint"]
    problems = []
    for index, rep in enumerate(reps):
        found = list(rep["problems"])
        if rep["fingerprint"] != first:
            found.append("fingerprint differs between repetitions")
        if expected is not None and rep["fingerprint"] != expected:
            found.append(f"fingerprint {rep['fingerprint']} != committed "
                         f"{expected}")
        rep["ok"] = not found
        problems += [f"repetition {index}: {p}" for p in found]
    return problems


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def host_scale(record: dict) -> float:
    """Factor from a repetition's seconds to seconds at reference speed."""
    return REFERENCE_S / record["ref_hmean_s"]


def end_to_end(reps: list[dict], setups: list[dict]) -> dict[str, float]:
    untraced = [r for r in reps if not r["traced"]]
    return {
        "wall_s": median(r["wall_s"] * host_scale(r) for r in untraced),
        "setup_s": median(r["setup_s"] * host_scale(r)
                          for r in untraced + setups),
        "sim_rate": median(r["sim_s"] / (r["phase"]["run_s"] * host_scale(r))
                           for r in untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out: dict[str, float] = {}
    for name in LEDGER_COUNTS + LEDGER_RATIOS:
        out[name] = median(r["ledger"][name] for r in traced)
    for name in RECORD_COUNTS:
        out[name] = median(r["counts"].get(name, 0) for r in traced)
    for row in SHARE_ROWS:
        out[f"{row}.share"] = median(
            100.0 * r["ledger"][f"{row}.self_s"] / r["wall_s"]
            for r in traced)
    for phase in ("setup_s", "run_s", "report_s"):
        out[f"phase.{phase}"] = median(r["phase"][phase] for r in traced)
    out["phase.unattributed_s"] = median(
        r["ledger"]["phase.unattributed_s"] for r in traced)
    out["trace.overhead"] = (
        median(r["wall_s"] * host_scale(r) for r in traced)
        / median(r["wall_s"] * host_scale(r) for r in untraced))
    out["box.calibration_s"] = median(r["calibration_s"] for r in reps)
    return out


def ledger_table(reps: list[dict]) -> list[str]:
    """Every span row of the median traced repetition, by self time."""
    traced = sorted((r for r in reps if r["traced"]),
                    key=lambda r: r["wall_s"])
    rep = traced[len(traced) // 2]
    ledger, wall = rep["ledger"], rep["wall_s"]
    rows = sorted(((key[:-len(".self_s")], value)
                   for key, value in ledger.items()
                   if key.endswith(".self_s")),
                  key=lambda item: -item[1])
    lines = [f"  traced wall {wall:.4f} s; rows by self time:"]
    for name, self_s in rows + [("phase.unattributed",
                                 ledger["phase.unattributed_s"])]:
        calls = ledger.get(f"{name}.calls", "")
        lines.append(f"    {name:<28}{self_s:>10.4f} s{100 * self_s / wall:>7.1f}%"
                     f"{calls:>10}")
    for key in sorted(ledger):
        if not key.endswith((".self_s", ".calls")):
            lines.append(f"    {key:<28}{ledger[key]:>14.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long configs for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository "
              "root", file=sys.stderr)
        return 2
    box = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "git_sha": git_sha(root)}
    try:
        reps, setups = run_reps(root, args.workload, args.seed, args.size,
                                args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = check(reps, args.workload, args.seed, args.size,
                     load_fingerprints())
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] if r["ok"] else r["attempted"] for r in reps)

    if args.trace:
        values = per_layer(reps)
        units = PER_LAYER
    else:
        values = end_to_end(reps, setups)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    artefact = out_dir / (f"{args.workload}-seed{args.seed}-{args.size}"
                          f"-trace{args.trace}.json")
    artefact.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": args.size,
         "box": box, "problems": problems, "metrics": metrics,
         "repetitions": reps, "setup_only": setups}, indent=1,
        sort_keys=True))

    untraced = sum(1 for r in reps if not r["traced"])
    print(f"{args.workload} seed {args.seed} ({args.size}): "
          f"{untraced} untraced + {len(reps) - untraced} traced "
          f"repetition(s), {len(setups)} set-up-only; box nproc={box['nproc']} "
          f"python={box['python']} sha={box['git_sha'][:12]}")
    print(f"  calibration loop: median "
          f"{median(r['calibration_s'] for r in reps):.4f} s")
    print(f"  {'failed_ratio':<34}{failed / attempted:>14.6g} ratio "
          f"({failed} failed / {attempted} attempted ops)")
    if not args.trace:
        walls = [r["wall_s"] for r in reps]
        scales = [host_scale(r) for r in reps + setups]
        print(f"  raw wall over {len(walls)} repetitions: fastest "
              f"{min(walls):.4f} s, median {median(walls):.4f} s, slowest "
              f"{max(walls):.4f} s; setup_s is the median of "
              f"{len(walls) + len(setups)} set-ups")
        print(f"  host speed against the reference: {min(scales):.3f} to "
              f"{max(scales):.3f}")
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        print("\n".join(ledger_table(reps)))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  artefact: {artefact}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
