"""The §16 experiment runner: sweeps, reproducible JSONL, invariant
verdicts, and the CLI wiring."""

import json
from time import perf_counter

import pytest

from repro.__main__ import main
from repro.experiments.scale import ScaleConfig, run_scale
from repro.scenarios.chaos import HostCrash, NetworkPartition
from repro.scenarios.runner import (
    SCENARIOS,
    Scenario,
    parse_sweep,
    run_experiment,
    scenario_names,
)
from repro.scenarios.workloads import WorkloadError
from tests.setups import crash_keeping_bookings

#: small enough to keep the suite fast, big enough to exercise elasticity
FAST = ["services=8", "hours=0.25", "settle=120"]


# ---------------------------------------------------------------------------
# Sweep grammar
# ---------------------------------------------------------------------------

def test_parse_sweep_grid():
    cells = parse_sweep(["sites=4,16", "load=0.5,0.9"])
    assert cells == [
        {"sites": 4, "load": 0.5}, {"sites": 4, "load": 0.9},
        {"sites": 16, "load": 0.5}, {"sites": 16, "load": 0.9}]


def test_parse_sweep_empty_and_types():
    assert parse_sweep([]) == [{}]
    (cell,) = parse_sweep(["alpha=1.5", "sites=4", "workload=x"])
    assert cell == {"alpha": 1.5, "sites": 4, "workload": "x"}
    assert isinstance(cell["sites"], int)


def test_parse_sweep_rejects_malformed():
    with pytest.raises(WorkloadError):
        parse_sweep(["sites"])
    with pytest.raises(WorkloadError):
        parse_sweep(["sites="])
    with pytest.raises(WorkloadError):
        parse_sweep(["sites=2", "sites=4"])


def test_scenario_catalogue_is_well_formed():
    assert {"baseline", "flash-crowd", "site-outage",
            "partition"} <= set(scenario_names())
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.description
        # every catalogue entry must materialise into a valid config
        cfg = scenario.configure({"services": 8, "hours": 0.25})
        assert cfg.check_invariants


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_same_command_writes_byte_identical_jsonl(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        result = run_experiment("flash-crowd", sweep=["sites=2,4"] + FAST,
                                seed=7, out_dir=str(out))
        assert result.ok and len(result.cells) == 2
    a = (a_dir / "flash-crowd-seed7.jsonl").read_bytes()
    b = (b_dir / "flash-crowd-seed7.jsonl").read_bytes()
    assert a == b
    records = [json.loads(line) for line in a.splitlines()]
    assert [r["cell"]["sites"] for r in records] == [2, 4]
    assert [r["cell_index"] for r in records] == [0, 1]
    for record in records:
        assert record["ok"] is True and record["violations"] == []
        assert record["seed"] == 7
        assert record["flight_recorder"] is None   # nothing went wrong
        assert "wall_s" not in record    # nothing non-deterministic


def test_chaos_scenario_passes_invariants(tmp_path):
    """A correlated site outage mid flash crowd must complete with every
    invariant intact (the PR's headline acceptance scenario)."""
    result = run_experiment("site-outage", sweep=FAST, seed=7,
                            out_dir=str(tmp_path))
    assert result.ok
    (record,) = [json.loads(line) for line in
                 (tmp_path / "site-outage-seed7.jsonl").read_text()
                 .splitlines()]
    assert record["chaos"] and record["chaos"][0]["type"] == "SiteOutage"


def test_intentional_violation_is_a_failing_cell(tmp_path, monkeypatch):
    """A host crash that leaves the host's capacity booked must surface as
    a failing cell — proof the runner's invariant checking can actually
    fail."""
    crash_keeping_bookings(monkeypatch)
    name = "_broken-host"
    SCENARIOS[name] = Scenario(
        name, "test-only: a crashed host keeps its booked capacity",
        chaos=lambda cfg: (HostCrash(
            at_s=cfg.monitor_period_s * 3 + 15.0, site="site-0"),))
    try:
        result = run_experiment(name, sweep=FAST, seed=7,
                                out_dir=str(tmp_path))
    finally:
        del SCENARIOS[name]
    assert not result.ok
    (cell,) = result.cells
    assert any("no-oversubscription" in v and "reservation drift" in v
               for v in cell.report.violations)
    (record,) = [json.loads(line) for line in
                 (tmp_path / f"{name}-seed7.jsonl").read_text().splitlines()]
    assert record["ok"] is False and record["violations"]
    assert record["cell_index"] == 0
    assert "INVARIANT VIOLATION" in result.render()
    assert "[cell 0]" in result.render()

    # the failing cell dumped its flight recorder next to the JSONL, the
    # record points at it by name, and the render shows the full path
    assert record["flight_recorder"] == f"{name}-seed7-cell0.flight.jsonl"
    dump = tmp_path / record["flight_recorder"]
    assert dump.exists()
    header = json.loads(dump.read_text().splitlines()[0])
    assert header["record"] == "flight"
    assert "no-oversubscription" in header["reason"]
    assert header["captured"] > 0
    assert str(dump) in result.render()


def test_unknown_scenario_rejected():
    with pytest.raises(WorkloadError):
        run_experiment("no-such-scenario", out_dir=None)


def test_bad_cell_fails_before_any_cell_runs(tmp_path):
    """Every cell is configured before the first one runs: a bad value in
    the last cell is a typed error naming that cell, and nothing ran."""
    ran = []
    with pytest.raises(WorkloadError, match=r"cell 1 \(sites=0\)"):
        run_experiment("baseline", sweep=["sites=2,0"],
                       out_dir=str(tmp_path / "runs"), progress=ran.append)
    assert ran == [] and not (tmp_path / "runs").exists()


def test_run_without_out_dir_writes_nothing():
    result = run_experiment("baseline", sweep=FAST, seed=3, out_dir=None)
    assert result.jsonl_path is None and result.ok


# ---------------------------------------------------------------------------
# Config validation for chaos under sharding
# ---------------------------------------------------------------------------

def test_partition_chaos_requires_single_process():
    with pytest.raises(ValueError, match="procs=1"):
        ScaleConfig(sites=2, procs=2, chaos=(
            NetworkPartition(at_s=10.0, sites=("site-0",)),))
    # fine single-process
    ScaleConfig(sites=2, procs=1, chaos=(
        NetworkPartition(at_s=10.0, sites=("site-0",)),))


def test_chaos_site_names_validated():
    with pytest.raises(ValueError, match="site-9"):
        ScaleConfig(sites=2, chaos=(
            NetworkPartition(at_s=10.0, sites=("site-9",)),))


def test_settle_window_lets_recovery_finish():
    """settle_s extends the run beyond the workload window so in-flight
    heals settle before the invariant sweep."""
    cfg = ScaleConfig(sites=2, services=8, hours=0.25, settle_s=90.0,
                      check_invariants=True)
    report = run_scale(cfg)
    assert report.violations == ()
    with pytest.raises(ValueError):
        ScaleConfig(settle_s=-1.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_experiment_list(capsys):
    assert main(["experiment", "--list"]) == 0
    out = capsys.readouterr().out
    assert "flash-crowd" in out and "site-outage" in out


def test_cli_experiment_smoke(tmp_path, capsys):
    code = main(["experiment", "flash-crowd", "--sweep", "sites=2",
                 *FAST, "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "experiment flash-crowd" in out and "ok" in out
    assert (tmp_path / "flash-crowd-seed7.jsonl").exists()


@pytest.mark.parametrize("axis", ["sample_period_s=0", "vm_cpu=0", "site=2"])
def test_cli_bad_cell_config_exits_2(axis, tmp_path, capsys):
    """Values that once hung the census or divided by zero while sizing
    the sites, and a misspelled key that once ran silently at the default,
    now fail up front with a typed error."""
    t0 = perf_counter()
    assert main(["experiment", "baseline", "--sweep", axis,
                 "--out", str(tmp_path)]) == 2
    assert perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: cell 0 ({axis}): ")
    assert "Traceback" not in err


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["experiment", "nope", "--out", "/tmp/ignored"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
