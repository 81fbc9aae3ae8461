"""Table 3 reproduction: dedicated environment vs. cloud infrastructure.

Paper values (Cluster Computing 2012, Table 3):

======================================  =========  ==============
Row                                     Dedicated  Cloud
======================================  =========  ==============
Search turn around time (s)             8605       9220
Complete shutdown time (s)              N/A        9574
Average execution nodes (for run)       16         10.49
Average execution nodes (until stop)    N/A        10.42
Resource usage saving                   —          34.46%
Extra run time (jobs)                   —          +7.15%
======================================  =========  ==============

Acceptance bands check the *shape*: who wins, by roughly what factor.
"""

import pytest

from repro.experiments.polymorph import run_dedicated, table3

from conftest import paper_row

PAPER = {
    "dedicated_turnaround_s": 8605.0,
    "cloud_turnaround_s": 9220.0,
    "cloud_shutdown_s": 9574.0,
    "dedicated_mean_nodes_run": 16.0,
    "cloud_mean_nodes_run": 10.49,
    "cloud_mean_nodes_until_shutdown": 10.42,
    "resource_usage_saving": 0.3446,
    "extra_run_time": 0.0715,
}


def test_table3_dedicated_baseline(benchmark, dedicated_run):
    result = benchmark.pedantic(run_dedicated, rounds=1, iterations=1)
    assert result.jobs_completed == 402
    # Dedicated turn-around within ±10% of the paper's 8605 s.
    assert result.turnaround_s == pytest.approx(
        PAPER["dedicated_turnaround_s"], rel=0.10)
    assert result.mean_nodes_run == 16


def test_table3_full_comparison(benchmark, dedicated_run, elastic_run):
    rows = benchmark.pedantic(table3, args=(dedicated_run, elastic_run),
                              rounds=1, iterations=1)

    print("\n  Table 3 — paper vs. measured")
    paper_row("search turn around, dedicated (s)",
              PAPER["dedicated_turnaround_s"],
              rows["dedicated_turnaround_s"])
    paper_row("search turn around, cloud (s)",
              PAPER["cloud_turnaround_s"], rows["cloud_turnaround_s"])
    paper_row("complete shutdown time (s)",
              PAPER["cloud_shutdown_s"], rows["cloud_shutdown_s"])
    paper_row("avg execution nodes, run",
              PAPER["cloud_mean_nodes_run"], rows["cloud_mean_nodes_run"])
    paper_row("avg execution nodes, until shutdown",
              PAPER["cloud_mean_nodes_until_shutdown"],
              rows["cloud_mean_nodes_until_shutdown"])
    paper_row("resource usage saving (%)",
              PAPER["resource_usage_saving"] * 100,
              rows["resource_usage_saving"] * 100)
    paper_row("extra run time (%)",
              PAPER["extra_run_time"] * 100, rows["extra_run_time"] * 100)

    # Shape acceptance: elastic is slower (single-digit %) but substantially
    # cheaper; shutdown trails turn-around; averages ordered as in Table 3.
    assert 0.02 <= rows["extra_run_time"] <= 0.15
    assert 0.25 <= rows["resource_usage_saving"] <= 0.45
    assert rows["cloud_shutdown_s"] > rows["cloud_turnaround_s"]
    assert rows["cloud_mean_nodes_until_shutdown"] <= \
        rows["cloud_mean_nodes_run"]
    assert rows["cloud_mean_nodes_run"] < rows["dedicated_mean_nodes_run"]

    # Tight bands around the calibrated reproduction (±10%).
    assert rows["cloud_turnaround_s"] == pytest.approx(
        PAPER["cloud_turnaround_s"], rel=0.10)
    assert rows["cloud_mean_nodes_run"] == pytest.approx(
        PAPER["cloud_mean_nodes_run"], rel=0.10)
    assert rows["resource_usage_saving"] == pytest.approx(
        PAPER["resource_usage_saving"], abs=0.05)


def test_table3_elastic_completes_every_job(benchmark, elastic_run):
    benchmark.pedantic(lambda: elastic_run.jobs_completed,
                       rounds=1, iterations=1)
    assert elastic_run.jobs_completed == 402
    assert elastic_run.peak_nodes <= 16
