#!/usr/bin/env python3
"""The paper's evaluation (§6), end to end: polymorph search on the cloud.

Runs the computational-chemistry workload (2 long seed jobs, 200 refinement
jobs spawned per seed completion) twice — on a dedicated 16-node cluster and
on the elastic RESERVOIR stack — then prints Table 3 and the Fig. 11 text
charts.

Run:  python examples/polymorph_grid.py          (full size, ~20 s)
      python examples/polymorph_grid.py --small  (scaled down, ~2 s)
"""

import sys

from repro.experiments.fig11 import render_run
from repro.experiments.polymorph import run_dedicated, run_elastic, table3
from repro.grid.polymorph import PolymorphSearchConfig

PAPER = {
    "dedicated_turnaround_s": 8605.0,
    "cloud_turnaround_s": 9220.0,
    "cloud_shutdown_s": 9574.0,
    "cloud_mean_nodes_run": 10.49,
    "cloud_mean_nodes_until_shutdown": 10.42,
    "resource_usage_saving": 0.3446,
    "extra_run_time": 0.0715,
}


def main() -> None:
    if "--small" in sys.argv:
        workload = PolymorphSearchConfig(
            seed_durations_s=(600.0, 900.0), refinements_per_seed=48,
            refinement_mean_s=90.0, setup_s=20, gather_s=20, generate_s=5)
        print("(scaled-down workload — shapes hold, absolute values differ)")
    else:
        workload = PolymorphSearchConfig()

    print("running dedicated baseline (16 always-on nodes)...")
    dedicated = run_dedicated(workload)
    print("running elastic cloud (rules scale 0→16→0 instances)...\n")
    elastic = run_elastic(workload)

    rows = table3(dedicated, elastic)

    def fmt(value, unit=""):
        return "N/A" if value is None else f"{value:,.2f}{unit}"

    print("=" * 66)
    print(f"{'Table 3':<40}{'Dedicated':>12}{'Cloud':>14}")
    print("-" * 66)
    print(f"{'Search turn around time (s)':<40}"
          f"{fmt(rows['dedicated_turnaround_s']):>12}"
          f"{fmt(rows['cloud_turnaround_s']):>14}")
    print(f"{'Complete shutdown time (s)':<40}{'N/A':>12}"
          f"{fmt(rows['cloud_shutdown_s']):>14}")
    print(f"{'Average execution nodes (run)':<40}"
          f"{fmt(rows['dedicated_mean_nodes_run']):>12}"
          f"{fmt(rows['cloud_mean_nodes_run']):>14}")
    print(f"{'Average execution nodes (until stop)':<40}{'N/A':>12}"
          f"{fmt(rows['cloud_mean_nodes_until_shutdown']):>14}")
    print(f"{'Resource usage saving':<40}{'':>12}"
          f"{rows['resource_usage_saving'] * 100:>13.2f}%")
    print(f"{'Extra run time (jobs)':<40}{'':>12}"
          f"{rows['extra_run_time'] * 100:>13.2f}%")
    print("=" * 66)

    if "--small" not in sys.argv:
        print("\npaper values: turn-around 8605 → 9220 s (+7.15%), shutdown "
              "9574 s,\n              nodes 10.49/10.42, saving 34.46%")

    print("\n" + render_run(dedicated, width=70))
    print("\n" + render_run(elastic, width=70))

    print("\nelasticity rule firings (elastic run):")
    for name, stats in elastic.rule_firings.items():
        print(f"  {name:<24} {stats['firings']:>4} firing(s)")


if __name__ == "__main__":
    main()
