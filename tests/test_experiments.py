"""Integration tests for the evaluation harness (scaled-down workloads).

Full-size runs live in the benchmarks; here we verify the harness mechanics
and the qualitative shape of the results on small, fast workloads.
"""

import pytest

from repro.core.manifest import ensure_valid
from repro.experiments.fig11 import extract_series, render_ascii_chart, render_run
from repro.experiments.polymorph import (
    TestbedConfig,
    polymorph_manifest,
    run_dedicated,
    run_elastic,
    table3,
)
from repro.experiments.weekly import WeeklyConfig, run_week
from repro.grid import PolymorphSearchConfig

SMALL = PolymorphSearchConfig(
    seed_durations_s=(300.0, 450.0),
    refinements_per_seed=24,
    refinement_mean_s=60.0,
    setup_s=20, gather_s=20, generate_s=5,
)


@pytest.fixture(scope="module")
def small_runs():
    cfg = TestbedConfig()
    return run_dedicated(SMALL, cfg), run_elastic(SMALL, cfg)


def test_manifest_is_valid_and_matches_paper_structure():
    manifest = polymorph_manifest(TestbedConfig())
    ensure_valid(manifest)
    assert manifest.system("exec").instances.maximum == 16
    assert dict(manifest.placement.per_host_caps)["exec"] == 4
    rule_names = {r.name for r in manifest.elasticity_rules}
    assert rule_names == {"AdjustClusterSizeUp", "BootstrapCluster",
                          "AdjustClusterSizeDown"}
    up = next(r for r in manifest.elasticity_rules
              if r.name == "AdjustClusterSizeUp")
    assert up.trigger.time_constraint_ms == 5000
    assert "uk.ucl.condor.schedd.queuesize" in up.kpi_references()


def test_testbed_config_validation():
    with pytest.raises(ValueError):
        TestbedConfig(trigger_mode="psychic")
    with pytest.raises(ValueError):
        TestbedConfig(bootstrap_instances=0)


def test_dedicated_run_completes_all_jobs(small_runs):
    dedicated, _ = small_runs
    assert dedicated.jobs_completed == SMALL.total_jobs == 50
    assert dedicated.mean_nodes_run == 16
    assert dedicated.peak_nodes == 16
    assert dedicated.shutdown_time_s is None


def test_elastic_run_completes_all_jobs(small_runs):
    _, elastic = small_runs
    assert elastic.jobs_completed == SMALL.total_jobs
    assert elastic.peak_nodes <= 16


def test_elastic_slower_but_cheaper(small_runs):
    """The paper's hypothesis at small scale: modest extra runtime, real
    resource saving."""
    dedicated, elastic = small_runs
    t = table3(dedicated, elastic)
    assert t["extra_run_time"] > 0
    assert t["resource_usage_saving"] > 0.2
    assert t["cloud_mean_nodes_run"] < 16


def test_elastic_deallocates_completely(small_runs):
    _, elastic = small_runs
    assert elastic.shutdown_time_s is not None
    assert elastic.nodes_series.current == 0
    # Shutdown can trail the search end but never precede the run start.
    assert elastic.shutdown_time_s > 0


def test_elastic_scale_up_lag_visible(small_runs):
    """Fig. 11's 'small delay ... between increases in the number of jobs in
    queue, and the increase in Condor execution services'."""
    _, elastic = small_runs
    # Find the first big queue spike and the time instances reached 8.
    spike_t = next(t for t, v in elastic.queue_series.steps() if v >= 20)
    full_t = next(t for t, v in elastic.nodes_series.steps() if v >= 8)
    assert full_t > spike_t


def test_rule_firings_recorded(small_runs):
    _, elastic = small_runs
    stats = elastic.rule_firings
    assert stats["BootstrapCluster"]["firings"] >= 1
    assert stats["AdjustClusterSizeUp"]["firings"] >= 1
    assert stats["AdjustClusterSizeDown"]["firings"] >= 1


def test_runs_deterministic():
    cfg = TestbedConfig()
    a = run_elastic(SMALL, cfg)
    b = run_elastic(SMALL, cfg)
    assert a.turnaround_s == b.turnaround_s
    assert a.mean_nodes_run == b.mean_nodes_run


def test_prestaging_reduces_turnaround():
    cfg = TestbedConfig()
    baseline = run_elastic(SMALL, cfg)
    prestaged = run_elastic(SMALL, TestbedConfig(prestage_images=True))
    assert prestaged.turnaround_s < baseline.turnaround_s


def test_series_extraction_grid(small_runs):
    _, elastic = small_runs
    series = extract_series(elastic, period_s=30)
    assert len(series.times) == len(series.queued) == len(series.instances)
    assert series.times[0] == 0
    assert max(series.instances) <= 16
    rows = series.rows()
    assert rows[0][0] == 0


def test_render_run_text(small_runs):
    dedicated, elastic = small_runs
    text = render_run(elastic, width=40)
    assert "queued jobs" in text
    assert "execution instances" in text
    assert "█" in text
    with pytest.raises(ValueError):
        render_ascii_chart(elastic.queue_series, 10, 10)
    for width in (0, -5):
        with pytest.raises(ValueError, match=f"width must be at least 1, "
                                             f"got {width}"):
            render_ascii_chart(elastic.queue_series, 0, 10, width=width)


def test_table3_arithmetic():
    dedicated = run_dedicated(SMALL, TestbedConfig())
    elastic = run_elastic(SMALL, TestbedConfig())
    t = table3(dedicated, elastic)
    assert t["resource_usage_saving"] == pytest.approx(
        1 - t["cloud_mean_nodes_run"] / t["dedicated_mean_nodes_run"])
    assert t["extra_run_time"] == pytest.approx(
        (t["cloud_turnaround_s"] - t["dedicated_turnaround_s"])
        / t["dedicated_turnaround_s"])


# ---------------------------------------------------------------------------
# Weekly harness (tiny week: two short days)
# ---------------------------------------------------------------------------

def test_weekly_config_validation():
    with pytest.raises(ValueError):
        WeeklyConfig(window_start_s=10 * 3600, window_end_s=8 * 3600)
    with pytest.raises(ValueError):
        WeeklyConfig(min_scale=0)
    with pytest.raises(ValueError):
        WeeklyConfig(idle_days=(9,))


def test_weekly_small_run_shape():
    cfg = WeeklyConfig(
        idle_days=(1, 2, 3, 5, 6),          # one active day besides day 0...
        window_start_s=6 * 3600.0,
        window_end_s=9 * 3600.0,            # short window: few searches
        base_workload=SMALL,
        min_scale=0.8, max_scale=1.2,
    )
    result = run_week(cfg)
    assert result.search_count >= 2
    assert all(s.day in (0, 4) for s in result.searches)
    # Cluster idle most of the week → saving dominated by idle time.
    assert result.saving > 0.9
    assert 0 < result.busy_fraction < 0.1
    assert result.elastic_node_seconds > 0
