"""Tests for the federation scale harness (``python -m repro scale``)."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.__main__ import main
from repro.experiments import scale
from repro.experiments.scale import (
    SESSIONS_KPI,
    ScaleConfig,
    run_scale,
    verify_against_oracle,
)
from repro.sim.shard import read_peak_rss_kb
from tests.oracles.kernel import HeapEnvironment

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env() -> dict:
    """The CLI subprocesses' environment: the source path and nothing
    else, except ``PYTHONDONTWRITEBYTECODE`` when it is set, so that they
    leave no bytecode in the source tree either."""
    env = {"PYTHONPATH": SRC, "PATH": ""}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ScaleConfig(sites=0)
    with pytest.raises(ValueError):
        ScaleConfig(services=0)
    with pytest.raises(ValueError):
        ScaleConfig(hours=0)
    with pytest.raises(ValueError):
        ScaleConfig(tenants=0)
    with pytest.raises(ValueError):
        ScaleConfig(elastic_fraction=1.5)
    with pytest.raises(ValueError):
        ScaleConfig(monitor_period_s=0.0)
    with pytest.raises(ValueError, match="warm-up"):
        ScaleConfig(hours=0.01)


def test_config_pool_sizing_admits_whole_ceiling():
    cfg = ScaleConfig(sites=4, services=40)
    # 10 services/site, ceiling 2 instances each, 4 VMs/host -> 5 hosts + 1.
    assert cfg.services_per_site == 10
    assert cfg.hosts_per_site == 6
    assert cfg.duration_s == 3600.0


# ---------------------------------------------------------------------------
# A small end-to-end run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run_scale(ScaleConfig(sites=2, services=12, hours=0.5,
                                 tenants=3, random_seed=7))


def test_small_run_admits_everything(small_report):
    r = small_report
    assert r.admitted == 12
    assert r.queued == 0 and r.rejected == 0


def test_small_run_scales_the_fleet(small_report):
    # Some services burst past the scale-up threshold (elastic_fraction
    # 0.25, seed 7), so the peak fleet exceeds the initial one-VM-each.
    assert small_report.peak_vms > 12


def test_small_run_report_metrics(small_report):
    r = small_report
    assert r.events_processed > 0
    assert r.wall_s > 0
    assert r.events_per_sec > 0
    assert r.wall_s_per_sim_hour == pytest.approx(r.wall_s / 0.5)
    assert r.peak_rss_kb > 0
    assert r.rss_mb_per_1k_vms > 0
    assert r.peak_queue_depth >= 0


def test_small_run_render_mentions_all_headline_metrics(small_report):
    text = small_report.render()
    assert "events/sec" in text
    assert "wall-clock/sim-h" in text
    assert "per 1k VMs" in text


# ---------------------------------------------------------------------------
# Wheel vs reference kernel on the full harness
# ---------------------------------------------------------------------------

def test_harness_is_kernel_invariant(monkeypatch):
    """The same scale workload on the wheel and the heap oracle must agree
    on every simulation-visible outcome (wall-clock and RSS aside)."""
    cfg = ScaleConfig(sites=2, services=10, hours=0.25, tenants=2,
                      random_seed=11)
    wheel = run_scale(cfg)
    kernels = []

    def heap_kernel():
        kernels.append(HeapEnvironment())
        return kernels[-1]

    monkeypatch.setattr(scale, "Environment", heap_kernel)
    heap = run_scale(cfg)
    assert len(kernels) == 1        # the second run is on the heap oracle
    for field in ("admitted", "queued", "rejected", "peak_vms",
                  "peak_queue_depth", "events_processed", "dead_skipped"):
        assert getattr(wheel, field) == getattr(heap, field), field


def test_same_seed_replays_identically():
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, random_seed=3)
    a, b = run_scale(cfg), run_scale(cfg)
    assert a.events_processed == b.events_processed
    assert a.peak_vms == b.peak_vms
    assert a.peak_queue_depth == b.peak_queue_depth


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_scale_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "scale", "--sites", "2",
         "--services", "8", "--hours", "0.25", "--seed", "5"],
        capture_output=True, text=True, env=cli_env(),
        check=True)
    assert "events/sec" in out.stdout
    assert "per 1k VMs" in out.stdout


@pytest.mark.parametrize("argv", [["--sites", "0"], ["--procs", "0"],
                                  ["--monitor-period", "0"]])
def test_cli_scale_bad_config_is_a_typed_error(argv, capsys):
    t0 = perf_counter()
    assert main(["scale", *argv]) == 2
    assert perf_counter() - t0 < 1.0      # rejected before anything is built
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_progress_messages_name_the_phases_in_order():
    """The end-to-end benchmark splits a run's phases on the first word of
    each progress message, so those words and their order are a contract."""
    def phases(**overrides):
        words = []
        run_scale(ScaleConfig(sites=2, services=8, hours=0.25, random_seed=3,
                              check_invariants=True, **overrides),
                  progress=lambda msg: words.append(msg.split(" ", 1)[0]))
        return words

    assert phases() == ["building", "submitting", "deploying", "running",
                        "checking"]
    assert phases(procs=2) == ["planning", "running"]


def test_crash_dumps_the_flight_recorder(monkeypatch, tmp_path):
    """A run that raises dumps its flight ring and raises an error naming
    the dump, chained to the original; without a recorder the original
    error propagates unchanged."""
    boom = RuntimeError("invariant sweep exploded")

    def explode(*_args, **_kwargs):
        raise boom

    monkeypatch.setattr(scale, "check_all", explode)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, random_seed=3,
                      check_invariants=True)
    with pytest.raises(RuntimeError, match="flight recorder dumped") as info:
        run_scale(cfg)
    assert info.value.__cause__ is boom
    (dump,) = tmp_path.glob("repro-flight-*.jsonl")
    assert str(dump) in str(info.value)
    header = json.loads(dump.read_text().splitlines()[0])
    assert header["record"] == "flight"
    assert header["reason"] == repr(boom)

    with pytest.raises(RuntimeError) as info:
        run_scale(dataclasses.replace(cfg, flight_recorder=0))
    assert info.value is boom


def test_sessions_kpi_name_is_stable():
    # The manifest rules and the monitoring agents must agree on this name.
    assert SESSIONS_KPI == "scale.app.sessions"


# ---------------------------------------------------------------------------
# Sharded execution vs the single-process oracle
# ---------------------------------------------------------------------------

def test_sharded_run_matches_oracle_decision_for_decision():
    """`--procs 4` must reproduce the single-process oracle's admission
    outcomes, peak/final fleet sizes, and per-site fleets exactly."""
    cfg = ScaleConfig(sites=4, services=24, hours=0.5, tenants=3,
                      random_seed=7, procs=4, epoch_s=300.0)
    sharded, oracle, divergences = verify_against_oracle(cfg)
    assert divergences == []
    assert sharded.procs == 4 and oracle.procs == 1
    assert sharded.admitted == oracle.admitted
    assert sharded.queued == oracle.queued
    assert sharded.rejected == oracle.rejected
    assert sharded.peak_vms == oracle.peak_vms
    assert sharded.final_vms == oracle.final_vms
    assert sharded.site_fleets == oracle.site_fleets


def test_sharded_metrics_merge_matches_oracle():
    """Merged worker telemetry must reproduce the single-process registry
    exactly on the CI smoke shape: every counter total and histogram
    summary in the canonical view, plus the §4.2.3 audit tallies
    — and the report's RSS must aggregate the worker processes."""
    cfg = ScaleConfig(sites=4, services=40, hours=0.5, tenants=4,
                      random_seed=7, procs=2, epoch_s=600.0,
                      check_invariants=True)
    sharded, oracle, divergences = verify_against_oracle(cfg)
    assert divergences == []
    assert sharded.metrics  # telemetry actually shipped
    assert sharded.metrics == oracle.metrics
    assert any(key.startswith("cloud.veem.submitted")
               for key in sharded.metrics)
    assert any(key.startswith("control.plane.queue_wait_s")
               for key in sharded.metrics)
    assert sharded.audit_findings == oracle.audit_findings
    assert sharded.audit_violations == oracle.audit_violations
    assert sharded.peak_rss_kb > read_peak_rss_kb()


def test_sharded_rss_aggregates_workers():
    """Peak RSS under --procs > 1 must include the worker processes, so
    it always exceeds a lone coordinator's footprint."""
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, random_seed=3,
                      procs=2)
    report = run_scale(cfg)
    # coordinator + 2 interpreters: strictly more than any one process
    assert report.peak_rss_kb > read_peak_rss_kb()


def test_sharded_more_procs_than_sites():
    """Empty shards (procs > sites) must be harmless."""
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, random_seed=3)
    single = run_scale(cfg)
    sharded = run_scale(ScaleConfig(sites=2, services=8, hours=0.25,
                                    random_seed=3, procs=3))
    assert sharded.decision_outcomes() == single.decision_outcomes()


def test_sharded_defrag_matches_oracle():
    """--defrag-every stays decision-identical under sharding — and the
    passes really migrate VMs, so the agreement is not vacuous."""
    cfg = ScaleConfig(sites=4, services=40, hours=1, tenants=4,
                      random_seed=7, procs=2, epoch_s=300,
                      defrag_every_h=0.1, check_invariants=True)
    sharded, oracle, divergences = verify_against_oracle(cfg)
    assert divergences == []
    assert sharded.violations == oracle.violations == ()
    migrations = sum(value for key, value in oracle.metrics.items()
                     if key.startswith("cloud.veem.migrations"))
    assert migrations > 0


def test_cli_scale_verify_oracle_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "scale", "--sites", "2",
         "--services", "8", "--hours", "0.25", "--seed", "5",
         "--procs", "2", "--verify-oracle"],
        capture_output=True, text=True, env=cli_env(),
        check=True)
    assert "oracle agreement" in out.stdout
