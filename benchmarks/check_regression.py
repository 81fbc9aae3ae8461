#!/usr/bin/env python
"""Compare a pytest-benchmark JSON run against the committed baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_micro.py -q \
        --benchmark-json=/tmp/bench.json
    python benchmarks/check_regression.py /tmp/bench.json

Exits non-zero if any headline benchmark's median regressed more than
``THRESHOLD`` (25%) against ``BENCH_baseline.json``. Medians are compared
rather than means because the shared CI boxes throw multi-millisecond
scheduling outliers that swamp a mean but barely move a median.

Refresh the baseline after an intentional performance change::

    python benchmarks/check_regression.py /tmp/bench.json --update
"""

import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"

#: The benches the PR acceptance criteria are stated against. Other benches
#: are tracked informally; only these gate.
HEADLINE = (
    "test_expression_evaluation",
    "test_rule_engine_evaluation_pass",
    "test_kernel_event_throughput",
    "test_broker_fanout_indexed_1k",
    "test_multicast_fanout_50",
    "test_probe_emission_throughput",
    "test_codec_header_peek",
    "test_control_plane_churn",
    "test_solver_fallback_admission",
    "test_whatif_federation_probe",
    "test_obs_overhead",
    "test_kernel_10m_events",
    "test_scenario_runner_overhead",
    "test_metrics_merge_overhead",
)

#: Recorded in the baseline for context (e.g. the linear-scan routing mode
#: the indexed-broker speedup is measured against) but never gated — the
#: reference paths are not optimisation targets.
INFORMATIONAL = (
    "test_broker_fanout_reference_1k",
)

#: Memory metrics gated alongside the medians: (bench name, extra_info key).
#: Benches record them via ``benchmark.extra_info``; a footprint regression
#: would not move any median, so these are compared explicitly.
MEMORY = (
    ("test_scale_rss_per_1k_vms", "rss_mb_per_1k_vms"),
)

#: Hardware-conditional gates: (bench name, extra_info key), higher is
#: better. These benches skip themselves on incapable boxes (e.g. the
#: parallel-speedup bench needs >= 4 cores), so a metric missing from the
#: current run is SKIPPED, not a failure; when the baseline carries a value
#: and the box produced one, it gates like everything else. ``--update``
#: preserves the previous baseline entry when the current run skipped.
CONDITIONAL = (
    ("test_scale_parallel_speedup", "parallel_speedup"),
)

THRESHOLD = 0.25


def load_medians(path):
    with open(path) as fh:
        data = json.load(fh)
    if "benchmarks" in data and isinstance(data["benchmarks"], list):
        # raw pytest-benchmark output
        return {b["name"]: b["stats"]["median"] for b in data["benchmarks"]}
    # our slim committed format
    medians = {name: entry["median_s"]
               for name, entry in data["headline"].items()}
    for name, entry in data.get("informational", {}).items():
        medians[name] = entry["median_s"]
    return medians


def load_memory(path):
    """Memory metrics as {(bench name, metric key): value}."""
    with open(path) as fh:
        data = json.load(fh)
    metrics = {}
    if "benchmarks" in data and isinstance(data["benchmarks"], list):
        for b in data["benchmarks"]:
            for key, value in b.get("extra_info", {}).items():
                if isinstance(value, (int, float)):
                    metrics[(b["name"], key)] = float(value)
        return metrics
    for section in ("memory", "conditional"):
        for name, entry in data.get(section, {}).items():
            for key, value in entry.items():
                metrics[(name, key)] = float(value)
    return metrics


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    current = load_medians(argv[0])
    current_memory = load_memory(argv[0])
    if "--update" in argv[1:]:
        memory = {}
        for name, key in MEMORY:
            if (name, key) in current_memory:
                memory.setdefault(name, {})[key] = current_memory[(name, key)]
        conditional = {}
        previous = (load_memory(BASELINE_PATH)
                    if BASELINE_PATH.exists() else {})
        for name, key in CONDITIONAL:
            if (name, key) in current_memory:
                conditional.setdefault(name, {})[key] = \
                    current_memory[(name, key)]
            elif (name, key) in previous:
                # Bench skipped on this box: keep the capable-box baseline.
                conditional.setdefault(name, {})[key] = previous[(name, key)]
        slim = {
            "comment": "medians in seconds; refresh via check_regression.py "
                       "--update after intentional perf changes",
            "headline": {name: {"median_s": current[name]}
                         for name in HEADLINE},
            "informational": {name: {"median_s": current[name]}
                              for name in INFORMATIONAL if name in current},
            "memory": memory,
            "conditional": conditional,
        }
        BASELINE_PATH.write_text(json.dumps(slim, indent=2) + "\n")
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    baseline = load_medians(BASELINE_PATH)
    baseline_memory = load_memory(BASELINE_PATH)
    failed = False
    for name in HEADLINE:
        if name not in current:
            print(f"MISSING  {name}: not in {argv[0]}")
            failed = True
            continue
        if name not in baseline:
            print(f"NO-BASELINE {name}: add its median to "
                  f"{BASELINE_PATH.name}")
            failed = True
            continue
        base, now = baseline[name], current[name]
        delta = (now - base) / base
        status = "OK"
        if delta > THRESHOLD:
            status = "REGRESSED"
            failed = True
        print(f"{status:<10}{name}: baseline {base * 1e6:.1f}us, "
              f"current {now * 1e6:.1f}us ({delta:+.1%})")
    for name, key in MEMORY:
        if (name, key) not in current_memory:
            print(f"MISSING  {name}[{key}]: not in {argv[0]}")
            failed = True
            continue
        if (name, key) not in baseline_memory:
            print(f"NO-BASELINE {name}[{key}]: add it to "
                  f"{BASELINE_PATH.name}")
            failed = True
            continue
        base = baseline_memory[(name, key)]
        now = current_memory[(name, key)]
        delta = (now - base) / base
        status = "OK"
        if delta > THRESHOLD:
            status = "REGRESSED"
            failed = True
        print(f"{status:<10}{name}[{key}]: baseline {base:.1f}, "
              f"current {now:.1f} ({delta:+.1%})")
    for name, key in CONDITIONAL:
        if (name, key) not in baseline_memory:
            print(f"SKIPPED  {name}[{key}]: no baseline (bench needs "
                  f"capable hardware to record one)")
            continue
        if (name, key) not in current_memory:
            print(f"SKIPPED  {name}[{key}]: not measured on this box")
            continue
        base = baseline_memory[(name, key)]
        now = current_memory[(name, key)]
        # Higher is better for conditional metrics (they are speedups).
        delta = (base - now) / base
        status = "OK"
        if delta > THRESHOLD:
            status = "REGRESSED"
            failed = True
        print(f"{status:<10}{name}[{key}]: baseline {base:.2f}x, "
              f"current {now:.2f}x ({-delta:+.1%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
